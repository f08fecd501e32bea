//! Re-time a recorded [`EventGraph`] under hypothetical hardware.
//!
//! [`replay`] re-executes a run's recorded event DAG without re-running the
//! simulation: per-rank cursors walk the event lists, every *primitive*
//! duration (compute charge, disk request, message push, fault penalty,
//! device service) is rescaled by a [`CostOverride`], and every *wait*
//! (receive arrival gaps, device stalls) is recomputed from the replayed
//! dependency times. The output is the predicted per-rank finish times and
//! busy breakdowns, plus a critical-path summary classifying the predicted
//! makespan as compute-, comm-, io- or fault-bound.
//!
//! ## Replay guarantees
//!
//! * **Identity passthrough.** A factor of exactly `1.0` leaves the
//!   affected durations untouched (the recorded seconds are used verbatim,
//!   not recomputed from components), and replay performs the same
//!   floating-point accumulation sequence per rank as the live run. Under
//!   [`CostOverride::identity`] the replayed finish times are therefore
//!   **bit-exact** and the busy breakdowns bit-exact too ([`identity_check`]
//!   enforces both).
//! * **Monotonicity.** Every replayed duration is monotone nondecreasing in
//!   every override factor, and waits are compositions of `max` — so
//!   scaling any cost kind up can never decrease the predicted finish time.
//! * **Determinism.** Replay is a pure function of the graph and the
//!   override; it uses no threads and no OS time.
//!
//! ## Override semantics
//!
//! Factors multiply cost components: `comm_latency` scales each message's
//! `alpha` term and `comm_transfer` its `beta * bytes` term (0.0 models an
//! infinitely fast link); `disk_seek` / `disk_transfer` split both
//! synchronous requests and device service the same way; `fault` scales
//! retry penalties and in-flight link delays; `compute` scales every
//! compute charge and `op[k]` one [`crate::OpKind`] (index 7 is raw
//! [`crate::Proc::advance_compute`] time). Span scales (exact name or
//! trailing-`*` prefix) multiply every primitive duration recorded while a
//! matching span was open — the causal-profiling "virtual speedup" of one
//! phase. Waits and stalls are never scaled directly; they follow from the
//! dependencies.

use std::collections::{HashMap, VecDeque};

use crate::cost::OpKind;
use crate::evg::{Breakdown, Ev, EventGraph};

/// Multiplicative cost factors applied during replay. `1.0` everywhere is
/// the identity; see the module docs for what each factor scales.
#[derive(Debug, Clone, PartialEq)]
pub struct CostOverride {
    /// Scales every compute charge (applied on top of `op`).
    pub compute: f64,
    /// Per-[`crate::OpKind::index`] compute factors; index 7 scales raw
    /// [`crate::Proc::advance_compute`] charges.
    pub op: [f64; 8],
    /// Scales the startup-latency (`alpha`) component of every message.
    pub comm_latency: f64,
    /// Scales the transfer (`beta * bytes`) component of every message
    /// (0.0 = infinite bandwidth).
    pub comm_transfer: f64,
    /// Scales the seek/access-latency component of disk requests and
    /// device service.
    pub disk_seek: f64,
    /// Scales the transfer component of disk requests and device service.
    pub disk_transfer: f64,
    /// Scales fault retry penalties and in-flight link delays.
    pub fault: f64,
    /// `(pattern, factor)` span scales; a pattern is an exact span name or
    /// a trailing-`*` prefix (`"cgm.*"`). All matching factors multiply.
    pub span_scales: Vec<(String, f64)>,
}

impl CostOverride {
    /// The identity override: every factor 1.0, no span scales.
    pub fn identity() -> CostOverride {
        CostOverride {
            compute: 1.0,
            op: [1.0; 8],
            comm_latency: 1.0,
            comm_transfer: 1.0,
            disk_seek: 1.0,
            disk_transfer: 1.0,
            fault: 1.0,
            span_scales: Vec::new(),
        }
    }

    /// Whether this override rescales nothing (every factor exactly 1.0).
    pub fn is_identity(&self) -> bool {
        self.compute == 1.0
            && self.op.iter().all(|&f| f == 1.0)
            && self.comm_latency == 1.0
            && self.comm_transfer == 1.0
            && self.disk_seek == 1.0
            && self.disk_transfer == 1.0
            && self.fault == 1.0
            && self.span_scales.iter().all(|(_, f)| *f == 1.0)
    }

    /// Builder: add a span scale (exact name or trailing-`*` prefix).
    pub fn with_span(mut self, pattern: &str, factor: f64) -> CostOverride {
        self.span_scales.push((pattern.to_string(), factor));
        self
    }

    /// Builder: scale one compute [`OpKind`].
    pub fn with_op(mut self, kind: OpKind, factor: f64) -> CostOverride {
        self.op[kind.index()] = factor;
        self
    }

    /// Combined factor of every span scale matching `name`.
    fn span_factor(&self, name: &str) -> f64 {
        let mut f = 1.0;
        for (pat, scale) in &self.span_scales {
            let hit = match pat.strip_suffix('*') {
                Some(prefix) => name.starts_with(prefix),
                None => name == pat,
            };
            if hit && *scale != 1.0 {
                f *= scale;
            }
        }
        f
    }
}

impl Default for CostOverride {
    fn default() -> Self {
        CostOverride::identity()
    }
}

/// Scale `x` by `f` with exact-1.0 passthrough (`x` verbatim, preserving
/// the identity override's bit-exactness).
#[inline]
fn sc(x: f64, f: f64) -> f64 {
    if f == 1.0 {
        x
    } else {
        x * f
    }
}

/// Rescale a two-component duration (`total = a + rest`): when both
/// factors are 1.0 the recorded total passes through verbatim; otherwise
/// the components are rescaled and re-summed.
#[inline]
fn sc2(total: f64, a: f64, fa: f64, fb: f64) -> f64 {
    if fa == 1.0 && fb == 1.0 {
        total
    } else {
        sc(a, fa) + sc((total - a).max(0.0), fb)
    }
}

/// Rescale a three-component duration (`total = seek + transfer + fault`).
#[inline]
fn sc3(total: f64, seek: f64, fault: f64, fs: f64, ft: f64, ff: f64) -> f64 {
    if fs == 1.0 && ft == 1.0 && ff == 1.0 {
        total
    } else {
        sc(seek, fs) + sc((total - seek - fault).max(0.0), ft) + sc(fault, ff)
    }
}

/// Resource class of one replayed time interval.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    Compute,
    Comm,
    Io,
    Fault,
}

/// Cross-rank / cross-timeline dependency of one interval.
#[derive(Debug, Clone, Copy)]
enum Dep {
    /// Rank-local work.
    None,
    /// A receive wait: the message's sender finished pushing at `end` on
    /// rank `rank` (arrival may be later by an in-flight delay).
    Msg { rank: usize, end: f64 },
    /// A device stall that ended when request `req` completed.
    Dev { req: usize },
}

/// One replayed interval of one rank (intervals tile `[0, finish]`).
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: f64,
    end: f64,
    class: Class,
    dep: Dep,
}

/// Per-class attribution of the replayed critical path: one causal chain
/// from time 0 to the predicted makespan, with receive waits charged to
/// the sending rank's activity and device stalls to device service.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CriticalSummary {
    /// Critical seconds spent computing.
    pub compute: f64,
    /// Critical seconds spent in communication (sends and in-flight time).
    pub comm: f64,
    /// Critical seconds spent in disk I/O (synchronous requests and device
    /// service chains).
    pub io: f64,
    /// Critical seconds spent in fault penalties.
    pub fault: f64,
}

impl CriticalSummary {
    /// Total attributed critical seconds (≈ the predicted makespan).
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.io + self.fault
    }

    /// Which resource dominates the critical path: `"compute-bound"`,
    /// `"comm-bound"`, `"io-bound"` or `"fault-bound"`.
    pub fn verdict(&self) -> &'static str {
        let rows = [
            (self.compute, "compute-bound"),
            (self.comm, "comm-bound"),
            (self.io, "io-bound"),
            (self.fault, "fault-bound"),
        ];
        rows.iter()
            .fold(rows[0], |best, &r| if r.0 > best.0 { r } else { best })
            .1
    }

    /// One-line rendering for reports: the verdict plus the per-class
    /// split of the critical path.
    pub fn render(&self, makespan: f64) -> String {
        let pct = |x: f64| if makespan > 0.0 { 100.0 * x / makespan } else { 0.0 };
        format!(
            "verdict: {} (critical path: compute {:.1}% | comm {:.1}% | io {:.1}% | fault {:.1}%)",
            self.verdict(),
            pct(self.compute),
            pct(self.comm),
            pct(self.io),
            pct(self.fault),
        )
    }
}

/// Result of one replay: predicted per-rank finish times and busy
/// breakdowns, plus the critical-path classification.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutput {
    /// Predicted per-rank finish times, virtual seconds.
    pub finish: Vec<f64>,
    /// Predicted per-rank busy breakdowns.
    pub breakdown: Vec<Breakdown>,
    /// Per-class attribution of the predicted critical path.
    pub critical: CriticalSummary,
}

impl ReplayOutput {
    /// Predicted makespan (slowest rank's finish).
    pub fn makespan(&self) -> f64 {
        self.finish.iter().cloned().fold(0.0, f64::max)
    }

    /// Fraction of the makespan rank `rank` spent doing work (compute +
    /// comm + io + fault; stalls and end-of-run idle excluded).
    pub fn utilization(&self, rank: usize) -> f64 {
        let b = &self.breakdown[rank];
        let busy = b.compute + b.comm + b.io + b.fault;
        let span = self.makespan();
        if span > 0.0 {
            busy / span
        } else {
            0.0
        }
    }
}

struct Replayer<'a> {
    graph: &'a EventGraph,
    ov: &'a CostOverride,
    clock: Vec<f64>,
    device_free: Vec<f64>,
    bd: Vec<Breakdown>,
    cursor: Vec<usize>,
    /// Stack of combined span factors per rank (bottom is the constant 1.0).
    span_prod: Vec<Vec<f64>>,
    /// Replayed message arrival times, indexed `[rank][event]` (NaN until
    /// the push replays).
    arrive: Vec<Vec<f64>>,
    /// Sender clock when each push completed (arrival minus delay).
    push_end: Vec<Vec<f64>>,
    /// Receive matching: `(rank, event index)` → sender `(rank, event
    /// index)`, built positionally from per-(src, dst, tag) FIFO order.
    matches: HashMap<(usize, usize), (usize, usize)>,
    /// Per-rank device request timelines, indexed by submission order.
    sub_clock: Vec<Vec<f64>>,
    starts: Vec<Vec<f64>>,
    completions: Vec<Vec<f64>>,
    /// `(recorded, replayed)` service seconds per request.
    services: Vec<Vec<(f64, f64)>>,
    segs: Vec<Vec<Seg>>,
}

impl<'a> Replayer<'a> {
    fn new(graph: &'a EventGraph, ov: &'a CostOverride) -> Replayer<'a> {
        let p = graph.nprocs;
        assert_eq!(graph.ranks.len(), p, "event graph rank count mismatch");
        // Positional receive matching: the mailbox delivers per-(src, tag)
        // FIFO in sender program order, so the k-th receive of (src, tag)
        // on rank d pairs with the k-th push (src → d, tag).
        let mut queues: HashMap<(usize, usize, u32), VecDeque<usize>> = HashMap::new();
        for (r, evs) in graph.ranks.iter().enumerate() {
            for (i, ev) in evs.iter().enumerate() {
                if let Ev::Push { dst, tag, .. } = ev {
                    queues.entry((r, *dst as usize, *tag)).or_default().push_back(i);
                }
            }
        }
        let mut matches = HashMap::new();
        for (d, evs) in graph.ranks.iter().enumerate() {
            for (i, ev) in evs.iter().enumerate() {
                if let Ev::Recv { src, tag } = ev {
                    let push = queues
                        .get_mut(&(*src as usize, d, *tag))
                        .and_then(VecDeque::pop_front)
                        .unwrap_or_else(|| {
                            panic!(
                                "cgm replay: rank {d} event {i} receives from \
                                 {src} tag {tag:#x} but no unmatched push exists \
                                 — corrupt event graph"
                            )
                        });
                    matches.insert((d, i), (*src as usize, push));
                }
            }
        }
        Replayer {
            graph,
            ov,
            clock: vec![0.0; p],
            device_free: vec![0.0; p],
            bd: vec![Breakdown::default(); p],
            cursor: vec![0; p],
            span_prod: vec![vec![1.0]; p],
            arrive: graph.ranks.iter().map(|e| vec![f64::NAN; e.len()]).collect(),
            push_end: graph.ranks.iter().map(|e| vec![f64::NAN; e.len()]).collect(),
            matches,
            sub_clock: vec![Vec::new(); p],
            starts: vec![Vec::new(); p],
            completions: vec![Vec::new(); p],
            services: vec![Vec::new(); p],
            segs: vec![Vec::new(); p],
        }
    }

    /// Advance rank `r`'s clock by `d` seconds of `class` work.
    fn advance(&mut self, r: usize, d: f64, class: Class) {
        if d == 0.0 {
            return;
        }
        let start = self.clock[r];
        self.clock[r] += d;
        match class {
            Class::Compute => self.bd[r].compute += d,
            Class::Comm => self.bd[r].comm += d,
            Class::Io => self.bd[r].io += d,
            Class::Fault => self.bd[r].fault += d,
        }
        // A duration below the clock's resolution leaves no interval; the
        // critical-path walk needs every interval to end after it starts.
        if self.clock[r] > start {
            self.segs[r].push(Seg { start, end: self.clock[r], class, dep: Dep::None });
        }
    }

    /// Replay one event of rank `r`.
    fn step(&mut self, r: usize, idx: usize, ev: Ev) {
        let prod = *self.span_prod[r].last().expect("span stack bottom");
        let ov = self.ov;
        match ev {
            Ev::Compute { kind, seconds } => {
                assert!((kind as usize) < ov.op.len(), "bad compute kind {kind}");
                let d = sc(sc(sc(seconds, ov.op[kind as usize]), ov.compute), prod);
                self.advance(r, d, Class::Compute);
            }
            Ev::Disk { seconds, seek, .. } => {
                let d = sc(sc2(seconds, seek, ov.disk_seek, ov.disk_transfer), prod);
                self.advance(r, d, Class::Io);
            }
            Ev::Fault { seconds, .. } => {
                let d = sc(sc(seconds, ov.fault), prod);
                self.advance(r, d, Class::Fault);
            }
            Ev::Push { seconds, lat, delay, .. } => {
                let d = sc(sc2(seconds, lat, ov.comm_latency, ov.comm_transfer), prod);
                self.advance(r, d, Class::Comm);
                let end = self.clock[r];
                let a = if delay == 0.0 { end } else { end + sc(delay, ov.fault) };
                self.push_end[r][idx] = end;
                self.arrive[r][idx] = a;
            }
            Ev::Recv { .. } => {
                let (sr, si) = self.matches[&(r, idx)];
                let arrive = self.arrive[sr][si];
                debug_assert!(!arrive.is_nan(), "recv stepped before its push");
                let clock = self.clock[r];
                if arrive > clock {
                    self.bd[r].comm += arrive - clock;
                    self.clock[r] = arrive;
                    self.segs[r].push(Seg {
                        start: clock,
                        end: arrive,
                        class: Class::Comm,
                        dep: Dep::Msg { rank: sr, end: self.push_end[sr][si] },
                    });
                }
            }
            Ev::Submit { service, seek, fault, .. } => {
                let new = sc(sc3(service, seek, fault, ov.disk_seek, ov.disk_transfer, ov.fault), prod);
                let start = self.device_free[r].max(self.clock[r]);
                let completion = start + new;
                self.device_free[r] = completion;
                self.bd[r].io_device += new;
                self.sub_clock[r].push(self.clock[r]);
                self.starts[r].push(start);
                self.completions[r].push(completion);
                self.services[r].push((service, new));
            }
            Ev::Wait { req, service } => {
                let req = req as usize;
                let completion = self.completions[r][req];
                let clock = self.clock[r];
                let stall = (completion - clock).max(0.0);
                if stall > 0.0 {
                    self.clock[r] += stall;
                    self.bd[r].io_stall += stall;
                    self.segs[r].push(Seg {
                        start: clock,
                        end: self.clock[r],
                        class: Class::Io,
                        dep: Dep::Dev { req },
                    });
                }
                let (old, new) = self.services[r][req];
                let share = if new == old { service } else { service * (new / old) };
                self.bd[r].io_overlapped += (share - stall).max(0.0);
            }
            Ev::SyncDev => {
                let clock = self.clock[r];
                let stall = (self.device_free[r] - clock).max(0.0);
                if stall > 0.0 {
                    self.clock[r] += stall;
                    self.bd[r].io_stall += stall;
                    let req = self.completions[r].len() - 1;
                    self.segs[r].push(Seg {
                        start: clock,
                        end: self.clock[r],
                        class: Class::Io,
                        dep: Dep::Dev { req },
                    });
                }
            }
            Ev::Enter { name } => {
                let f = self.ov.span_factor(&self.graph.names[name as usize]);
                let top = *self.span_prod[r].last().expect("span stack bottom");
                self.span_prod[r].push(if f == 1.0 { top } else { top * f });
            }
            Ev::Exit => {
                assert!(
                    self.span_prod[r].len() > 1,
                    "cgm replay: rank {r} closes a span that was never opened — \
                     corrupt event graph"
                );
                self.span_prod[r].pop();
            }
        }
    }

    /// Run every rank to completion (round-robin; a rank blocks only at a
    /// receive whose matching push has not replayed yet).
    fn run(&mut self) {
        let p = self.graph.nprocs;
        loop {
            let mut progress = false;
            let mut done = true;
            for r in 0..p {
                let evs = &self.graph.ranks[r];
                while self.cursor[r] < evs.len() {
                    let idx = self.cursor[r];
                    let ev = evs[idx];
                    if let Ev::Recv { .. } = ev {
                        let (sr, si) = self.matches[&(r, idx)];
                        if self.arrive[sr][si].is_nan() {
                            break; // blocked on a push not yet replayed
                        }
                    }
                    self.step(r, idx, ev);
                    self.cursor[r] += 1;
                    progress = true;
                }
                if self.cursor[r] < evs.len() {
                    done = false;
                }
            }
            if done {
                return;
            }
            assert!(
                progress,
                "cgm replay: no rank can make progress (receive cycle) — \
                 corrupt event graph"
            );
        }
    }

    /// Walk the critical path backward from the slowest rank's finish,
    /// jumping to the sender at receive waits and through device service
    /// chains at stalls, attributing each causal second to its resource.
    fn critical_summary(&self) -> CriticalSummary {
        let mut acc = CriticalSummary::default();
        let Some((mut r, &finish)) = self
            .clock
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite clocks"))
        else {
            return acc;
        };
        let mut t = finish;
        while t > 0.0 {
            let segs = &self.segs[r];
            let i = segs.partition_point(|s| s.end <= t);
            if i == 0 {
                break; // no activity before t on this rank
            }
            let seg = segs[i - 1];
            match seg.dep {
                Dep::None => {
                    let span = seg.end.min(t) - seg.start;
                    match seg.class {
                        Class::Compute => acc.compute += span,
                        Class::Comm => acc.comm += span,
                        Class::Io => acc.io += span,
                        Class::Fault => acc.fault += span,
                    }
                    t = seg.start;
                }
                Dep::Msg { rank, end } => {
                    // The wait is the sender's time: in-flight delay counts
                    // as communication, the rest re-walks on the sender.
                    acc.comm += (seg.end.min(t) - end).max(0.0);
                    r = rank;
                    t = end;
                }
                Dep::Dev { req } => {
                    // Follow the device's busy chain backward from the
                    // completion that released the stall.
                    let mut j = req;
                    loop {
                        acc.io += self.completions[r][j] - self.starts[r][j];
                        if j == 0 || self.starts[r][j] != self.completions[r][j - 1] {
                            break;
                        }
                        j -= 1;
                    }
                    t = self.starts[r][j];
                }
            }
        }
        acc
    }
}

/// Re-time `graph` under `ov`. See the module docs for the guarantees.
pub fn replay(graph: &EventGraph, ov: &CostOverride) -> ReplayOutput {
    let mut rp = Replayer::new(graph, ov);
    rp.run();
    let critical = rp.critical_summary();
    ReplayOutput { finish: rp.clock, breakdown: rp.bd, critical }
}

/// Replay `graph` under the identity override and panic unless every
/// rank's predicted finish time is **bit-exact** against the recorded one
/// and every busy-breakdown component matches to 1e-9. Returns the replay
/// output on success — the keystone regression check of the record/replay
/// subsystem.
pub fn identity_check(graph: &EventGraph) -> ReplayOutput {
    let out = replay(graph, &CostOverride::identity());
    for r in 0..graph.nprocs {
        assert_eq!(
            out.finish[r].to_bits(),
            graph.finish[r].to_bits(),
            "identity replay diverged on rank {r}: replayed {} vs recorded {}",
            out.finish[r],
            graph.finish[r]
        );
        let diff = out.breakdown[r].max_abs_diff(&graph.recorded[r]);
        assert!(
            diff <= 1e-9,
            "identity replay breakdown diverged on rank {r} by {diff}: \
             {:?} vs {:?}",
            out.breakdown[r],
            graph.recorded[r]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(ranks: Vec<Vec<Ev>>, names: Vec<String>) -> EventGraph {
        let p = ranks.len();
        EventGraph {
            nprocs: p,
            names,
            ranks,
            finish: vec![0.0; p],
            recorded: vec![Breakdown::default(); p],
        }
    }

    #[test]
    fn identity_passthrough_on_hand_graph() {
        // Rank 0 computes 1s then pushes; rank 1 waits then computes.
        let g0 = vec![
            Ev::Compute { kind: 0, seconds: 1.0 },
            Ev::Push { dst: 1, tag: 5, bytes: 10, seconds: 0.25, lat: 0.05, delay: 0.0, poison: false },
        ];
        let g1 = vec![Ev::Recv { src: 0, tag: 5 }, Ev::Compute { kind: 1, seconds: 0.5 }];
        let g = graph(vec![g0, g1], vec![]);
        let out = replay(&g, &CostOverride::identity());
        assert_eq!(out.finish[0].to_bits(), (1.0f64 + 0.25).to_bits());
        assert_eq!(out.finish[1].to_bits(), (1.0f64 + 0.25 + 0.5).to_bits());
        assert!((out.breakdown[1].comm - 1.25).abs() < 1e-15);
        // Critical path: 1.0 compute + 0.25 comm (sender side) + 0.5 compute.
        assert!((out.critical.compute - 1.5).abs() < 1e-12);
        assert!((out.critical.comm - 0.25).abs() < 1e-12);
        assert_eq!(out.critical.verdict(), "compute-bound");
    }

    #[test]
    fn bandwidth_override_shrinks_transfer_only() {
        let g = graph(
            vec![
                vec![Ev::Push { dst: 1, tag: 1, bytes: 1000, seconds: 1.1, lat: 0.1, delay: 0.0, poison: false }],
                vec![Ev::Recv { src: 0, tag: 1 }],
            ],
            vec![],
        );
        let mut ov = CostOverride::identity();
        ov.comm_transfer = 0.0; // infinite bandwidth: only alpha remains
        let out = replay(&g, &ov);
        assert!((out.finish[0] - 0.1).abs() < 1e-12);
        assert!((out.finish[1] - 0.1).abs() < 1e-12);
        ov.comm_transfer = 0.5;
        let half = replay(&g, &ov);
        assert!((half.finish[0] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn device_stall_recomputes_under_override() {
        let evs = vec![
            Ev::Submit { read: true, bytes: 100, service: 2.0, seek: 0.5, fault: 0.0 },
            Ev::Compute { kind: 0, seconds: 1.0 },
            Ev::Wait { req: 0, service: 2.0 },
        ];
        let g = graph(vec![evs], vec![]);
        let id = replay(&g, &CostOverride::identity());
        // Stall = 2.0 - 1.0 overlapped compute.
        assert!((id.finish[0] - 2.0).abs() < 1e-12);
        assert!((id.breakdown[0].io_stall - 1.0).abs() < 1e-12);
        assert!((id.breakdown[0].io_overlapped - 1.0).abs() < 1e-12);
        // A fast NVMe-class device removes the stall entirely.
        let mut ov = CostOverride::identity();
        ov.disk_seek = 0.1;
        ov.disk_transfer = 0.1;
        let fast = replay(&g, &ov);
        assert!((fast.finish[0] - 1.0).abs() < 1e-12);
        assert_eq!(fast.breakdown[0].io_stall, 0.0);
        assert_eq!(id.critical.verdict(), "io-bound");
    }

    #[test]
    fn span_scales_apply_to_open_spans_only() {
        let evs = vec![
            Ev::Enter { name: 0 },
            Ev::Compute { kind: 0, seconds: 1.0 },
            Ev::Exit,
            Ev::Compute { kind: 0, seconds: 1.0 },
        ];
        let g = graph(vec![evs], vec!["phase.scan".into()]);
        let ov = CostOverride::identity().with_span("phase.*", 0.5);
        let out = replay(&g, &ov);
        assert!((out.finish[0] - 1.5).abs() < 1e-12);
        // Exact-name pattern matches too; unrelated names do not.
        assert_eq!(CostOverride::identity().with_span("phase.scan", 0.25).span_factor("phase.scan"), 0.25);
        assert_eq!(CostOverride::identity().with_span("other", 0.25).span_factor("phase.scan"), 1.0);
    }

    #[test]
    fn poison_pushes_cost_nothing_and_still_match() {
        let g = graph(
            vec![
                vec![
                    Ev::Fault { kind: crate::evg::FAULT_LINK, seconds: 0.3 },
                    Ev::Push { dst: 1, tag: 2, bytes: 0, seconds: 0.0, lat: 0.0, delay: 0.0, poison: true },
                ],
                vec![Ev::Recv { src: 0, tag: 2 }],
            ],
            vec![],
        );
        let out = replay(&g, &CostOverride::identity());
        assert!((out.finish[0] - 0.3).abs() < 1e-12);
        assert!((out.finish[1] - 0.3).abs() < 1e-12);
        assert!((out.breakdown[0].fault - 0.3).abs() < 1e-12);
    }

    #[test]
    fn is_identity_and_default() {
        assert!(CostOverride::identity().is_identity());
        assert!(CostOverride::default().is_identity());
        let mut ov = CostOverride::identity();
        ov.comm_transfer = 0.5;
        assert!(!ov.is_identity());
        // A 1.0 span scale is still the identity.
        assert!(CostOverride::identity().with_span("x", 1.0).is_identity());
        assert!(!CostOverride::identity().with_span("x", 2.0).is_identity());
    }

    #[test]
    #[should_panic(expected = "no unmatched push")]
    fn unmatched_receive_panics() {
        let g = graph(vec![vec![Ev::Recv { src: 0, tag: 1 }]], vec![]);
        replay(&g, &CostOverride::identity());
    }
}

//! Replayable event graphs: the complete causal record of one run.
//!
//! The trace/span/gauge layers describe what a run *did*; this module
//! records enough to answer what a run *would have done* on different
//! hardware. When [`crate::MachineConfig::record`] is on, every virtual
//! processor appends one [`Ev`] per clock-affecting primitive — compute
//! charges, disk requests, message pushes and receives, asynchronous device
//! submissions and waits — in program order. The per-rank event lists form
//! a dependency-carrying DAG:
//!
//! * **message edges** — the k-th [`Ev::Recv`] on rank `d` matching
//!   `(src, tag)` pairs with the k-th [`Ev::Push`] from `src` to `d` with
//!   `tag` (the mailbox delivers per-(src, tag) FIFO in sender program
//!   order, so the pairing is positional and needs no ids);
//! * **device edges** — [`Ev::Wait`] names the per-rank submission index
//!   (`req`) of the [`Ev::Submit`] whose completion it blocks on;
//! * **program edges** — each rank's list is totally ordered.
//!
//! Every event stores its *recorded* duration **and** the cost components
//! it decomposes into (latency vs. transfer, seek vs. bandwidth, fault
//! penalties), so [`mod@crate::replay`] can re-time the DAG under a
//! [`crate::replay::CostOverride`] while guaranteeing that the identity
//! override replays the recorded total verbatim — bit-exactly, because
//! waits and stalls are always *recomputed* from the dependencies and the
//! primitive durations pass through untouched when their factors are 1.0.
//!
//! Recording is pure observation: it never reads or influences the virtual
//! clock, so record-on runs are bit-identical to record-off runs.
//!
//! Graphs persist via [`crate::wire::Wire`] as `results/*.evg` artifacts
//! (see [`EventGraph::save`] / [`EventGraph::load`]).

use std::collections::{HashMap, VecDeque};
use std::path::Path;

use crate::counters::ProcStats;
use crate::wire::{DecodeError, DecodeResult, Wire};

/// [`Ev::Compute`] kind index used for raw [`crate::Proc::advance_compute`]
/// charges (indices `0..7` are [`crate::OpKind::index`] values).
pub const COMPUTE_RAW: u8 = 7;

/// [`Ev::Fault`] kind: a transient disk-read retry penalty.
pub const FAULT_DISK: u8 = 0;
/// [`Ev::Fault`] kind: a dropped-transmission retry penalty (message cost
/// plus ack timeout).
pub const FAULT_LINK: u8 = 1;

/// One recorded clock-affecting primitive of one virtual processor.
///
/// Durations are the run's *charged* seconds (straggler skew and
/// degraded-bandwidth windows already applied); component fields decompose
/// them for re-timing. Replay recomputes every wait from dependencies, so
/// no event stores a wait duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// A compute charge: `clock += seconds`.
    Compute {
        /// [`crate::OpKind::index`] of the charge, or [`COMPUTE_RAW`].
        kind: u8,
        /// Charged seconds.
        seconds: f64,
    },
    /// A synchronous local-disk request: `clock += seconds`.
    Disk {
        /// Read (true) or write (false).
        read: bool,
        /// Payload bytes moved.
        bytes: u64,
        /// Total charged seconds.
        seconds: f64,
        /// Seek/access-latency component of `seconds` (0 when the request
        /// was served from the buffer cache); the rest is transfer.
        seek: f64,
    },
    /// A fault penalty charged to the clock: `clock += seconds`.
    Fault {
        /// [`FAULT_DISK`] or [`FAULT_LINK`].
        kind: u8,
        /// Charged seconds.
        seconds: f64,
    },
    /// A message push: `clock += seconds`, then the message arrives at the
    /// destination at `clock + delay`.
    Push {
        /// Physical destination rank.
        dst: u32,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// Charged sender seconds (`alpha + beta * bytes`; 0 for the
        /// poison tombstone a permanently failed send leaves behind — its
        /// cost was already charged as [`Ev::Fault`] penalties).
        seconds: f64,
        /// Startup-latency (`alpha`) component of `seconds`; the rest is
        /// transfer (`beta * bytes`).
        lat: f64,
        /// Extra in-flight delay before arrival (link-delay fault), seconds.
        delay: f64,
        /// Whether the message is a poison tombstone.
        poison: bool,
    },
    /// A blocking receive matching the k-th [`Ev::Push`] from `src` with
    /// `tag` addressed to this rank: `clock = max(clock, arrival)`, the
    /// gap charged as communication wait.
    Recv {
        /// Physical source rank.
        src: u32,
        /// Message tag.
        tag: u32,
    },
    /// An asynchronous submission to the rank's I/O device timeline: the
    /// request occupies the device for `service` seconds starting at
    /// `max(device_free, clock)`; the compute clock does not advance.
    /// Its per-rank submission index (position among this rank's `Submit`
    /// events) is the `req` named by [`Ev::Wait`].
    Submit {
        /// Read (true) or write (false).
        read: bool,
        /// Payload bytes moved.
        bytes: u64,
        /// Total device service seconds.
        service: f64,
        /// Seek/access-latency component of `service`.
        seek: f64,
        /// Transient-retry penalty component of `service`; the rest
        /// (`service - seek - fault`) is transfer.
        fault: f64,
    },
    /// A blocking wait for device request `req`: the exposed stall
    /// (`completion - clock`, when positive) charges the clock.
    Wait {
        /// Per-rank submission index of the awaited [`Ev::Submit`].
        req: u64,
        /// Service seconds the waiting ticket attributed to this consumer
        /// (a shared prefetch ticket carries a per-page share of the
        /// submission's service; used only for overlap accounting).
        service: f64,
    },
    /// A blocking wait until the device is idle (`device_free`).
    SyncDev,
    /// A span opened (only recorded when spans are enabled): `name` indexes
    /// the graph's name table. Span-name cost overrides scale every
    /// primitive duration recorded while the span is open.
    Enter {
        /// Index into [`EventGraph::names`] (per-rank table before
        /// [`EventGraph::from_stats`] rewrites it).
        name: u32,
    },
    /// The innermost open span closed.
    Exit,
}

impl Wire for Ev {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Ev::Compute { kind, seconds } => {
                0u8.encode(buf);
                kind.encode(buf);
                seconds.encode(buf);
            }
            Ev::Disk { read, bytes, seconds, seek } => {
                1u8.encode(buf);
                read.encode(buf);
                bytes.encode(buf);
                seconds.encode(buf);
                seek.encode(buf);
            }
            Ev::Fault { kind, seconds } => {
                2u8.encode(buf);
                kind.encode(buf);
                seconds.encode(buf);
            }
            Ev::Push { dst, tag, bytes, seconds, lat, delay, poison } => {
                3u8.encode(buf);
                dst.encode(buf);
                tag.encode(buf);
                bytes.encode(buf);
                seconds.encode(buf);
                lat.encode(buf);
                delay.encode(buf);
                poison.encode(buf);
            }
            Ev::Recv { src, tag } => {
                4u8.encode(buf);
                src.encode(buf);
                tag.encode(buf);
            }
            Ev::Submit { read, bytes, service, seek, fault } => {
                5u8.encode(buf);
                read.encode(buf);
                bytes.encode(buf);
                service.encode(buf);
                seek.encode(buf);
                fault.encode(buf);
            }
            Ev::Wait { req, service } => {
                6u8.encode(buf);
                req.encode(buf);
                service.encode(buf);
            }
            Ev::SyncDev => 7u8.encode(buf),
            Ev::Enter { name } => {
                8u8.encode(buf);
                name.encode(buf);
            }
            Ev::Exit => 9u8.encode(buf),
        }
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let tag = u8::decode(buf)?;
        Ok(match tag {
            0 => Ev::Compute { kind: u8::decode(buf)?, seconds: f64::decode(buf)? },
            1 => Ev::Disk {
                read: bool::decode(buf)?,
                bytes: u64::decode(buf)?,
                seconds: f64::decode(buf)?,
                seek: f64::decode(buf)?,
            },
            2 => Ev::Fault { kind: u8::decode(buf)?, seconds: f64::decode(buf)? },
            3 => Ev::Push {
                dst: u32::decode(buf)?,
                tag: u32::decode(buf)?,
                bytes: u64::decode(buf)?,
                seconds: f64::decode(buf)?,
                lat: f64::decode(buf)?,
                delay: f64::decode(buf)?,
                poison: bool::decode(buf)?,
            },
            4 => Ev::Recv { src: u32::decode(buf)?, tag: u32::decode(buf)? },
            5 => Ev::Submit {
                read: bool::decode(buf)?,
                bytes: u64::decode(buf)?,
                service: f64::decode(buf)?,
                seek: f64::decode(buf)?,
                fault: f64::decode(buf)?,
            },
            6 => Ev::Wait { req: u64::decode(buf)?, service: f64::decode(buf)? },
            7 => Ev::SyncDev,
            8 => Ev::Enter { name: u32::decode(buf)? },
            9 => Ev::Exit,
            _ => {
                return Err(DecodeError {
                    what: "unknown Ev tag",
                    remaining: buf.len(),
                    trailing: false,
                })
            }
        })
    }
}

/// Per-rank busy-time breakdown, mirroring the time categories of
/// [`crate::Counters`]. Stored in the graph (the recorded run's truth) and
/// produced by replay for comparison / utilization reporting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Seconds of charged computation.
    pub compute: f64,
    /// Seconds of communication (send charges plus receive waits).
    pub comm: f64,
    /// Seconds of synchronous disk I/O.
    pub io: f64,
    /// Seconds of fault penalties.
    pub fault: f64,
    /// Seconds the compute clock stalled on the I/O device.
    pub io_stall: f64,
    /// Seconds of device service that overlapped computation.
    pub io_overlapped: f64,
    /// Seconds of device service (background device occupancy).
    pub io_device: f64,
}

impl Breakdown {
    /// Seconds the rank's compute clock was busy (everything that advanced
    /// it): `compute + comm + io + fault + io_stall`.
    pub fn busy(&self) -> f64 {
        self.compute + self.comm + self.io + self.fault + self.io_stall
    }

    /// Largest absolute component difference against `other` (used by the
    /// identity-replay checks).
    pub fn max_abs_diff(&self, other: &Breakdown) -> f64 {
        [
            self.compute - other.compute,
            self.comm - other.comm,
            self.io - other.io,
            self.fault - other.fault,
            self.io_stall - other.io_stall,
            self.io_overlapped - other.io_overlapped,
            self.io_device - other.io_device,
        ]
        .iter()
        .fold(0.0f64, |m, d| m.max(d.abs()))
    }
}

impl Wire for Breakdown {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.compute.encode(buf);
        self.comm.encode(buf);
        self.io.encode(buf);
        self.fault.encode(buf);
        self.io_stall.encode(buf);
        self.io_overlapped.encode(buf);
        self.io_device.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        Ok(Breakdown {
            compute: f64::decode(buf)?,
            comm: f64::decode(buf)?,
            io: f64::decode(buf)?,
            fault: f64::decode(buf)?,
            io_stall: f64::decode(buf)?,
            io_overlapped: f64::decode(buf)?,
            io_device: f64::decode(buf)?,
        })
    }
}

/// Format version written at the head of every encoded graph.
pub const EVG_VERSION: u32 = 1;

/// The complete recorded event DAG of one run: per-rank event lists, a
/// shared span-name table, and the recorded finish times / busy breakdowns
/// replay validates itself against.
#[derive(Debug, Clone, PartialEq)]
pub struct EventGraph {
    /// Number of virtual processors.
    pub nprocs: usize,
    /// Span-name table; [`Ev::Enter::name`] indexes into it.
    pub names: Vec<String>,
    /// Per-rank event lists in program order.
    pub ranks: Vec<Vec<Ev>>,
    /// Recorded per-rank finish times (virtual seconds).
    pub finish: Vec<f64>,
    /// Recorded per-rank busy breakdowns.
    pub recorded: Vec<Breakdown>,
}

impl EventGraph {
    /// Assemble a graph from a finished run's stats, merging the per-rank
    /// span-name tables into one shared table. Panics if the run was not
    /// recorded with [`crate::MachineConfig::record`] but did charge time
    /// (an empty graph for a busy run would replay to nonsense).
    pub fn from_stats(stats: &[ProcStats]) -> EventGraph {
        let mut names: Vec<String> = Vec::new();
        let mut ranks = Vec::with_capacity(stats.len());
        for s in stats {
            assert!(
                !s.events.is_empty() || s.finish_time == 0.0,
                "cgm: rank {} charged {}s but recorded no events — enable \
                 MachineConfig::record before building an EventGraph",
                s.rank,
                s.finish_time
            );
            // Remap this rank's local name table into the shared one.
            let remap: Vec<u32> = s
                .event_names
                .iter()
                .map(|&n| match names.iter().position(|g| g == n) {
                    Some(i) => i as u32,
                    None => {
                        names.push(n.to_string());
                        (names.len() - 1) as u32
                    }
                })
                .collect();
            let evs = s
                .events
                .iter()
                .map(|&ev| match ev {
                    Ev::Enter { name } => Ev::Enter { name: remap[name as usize] },
                    other => other,
                })
                .collect();
            ranks.push(evs);
        }
        EventGraph {
            nprocs: stats.len(),
            names,
            ranks,
            finish: stats.iter().map(|s| s.finish_time).collect(),
            recorded: stats
                .iter()
                .map(|s| Breakdown {
                    compute: s.counters.compute_time,
                    comm: s.counters.comm_time,
                    io: s.counters.io_time,
                    fault: s.counters.fault_time,
                    io_stall: s.counters.io_stall_time,
                    io_overlapped: s.counters.io_overlapped_time,
                    io_device: s.counters.io_device_time,
                })
                .collect(),
        }
    }

    /// Recorded makespan (slowest rank's finish time).
    pub fn makespan(&self) -> f64 {
        self.finish.iter().cloned().fold(0.0, f64::max)
    }

    /// Total recorded events across all ranks.
    pub fn event_count(&self) -> usize {
        self.ranks.iter().map(Vec::len).sum()
    }

    /// Write the graph to `path` in its [`Wire`] encoding.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_bytes())
    }

    /// Read a graph previously written by [`EventGraph::save`].
    pub fn load(path: &Path) -> Result<EventGraph, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        EventGraph::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Wire for EventGraph {
    fn encode(&self, buf: &mut Vec<u8>) {
        EVG_VERSION.encode(buf);
        self.nprocs.encode(buf);
        self.names.encode(buf);
        self.ranks.encode(buf);
        self.finish.encode(buf);
        self.recorded.encode(buf);
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let version = u32::decode(buf)?;
        if version != EVG_VERSION {
            return Err(DecodeError {
                what: "unsupported event-graph version",
                remaining: buf.len(),
                trailing: false,
            });
        }
        let graph = EventGraph {
            nprocs: usize::decode(buf)?,
            names: Vec::<String>::decode(buf)?,
            ranks: Vec::<Vec<Ev>>::decode(buf)?,
            finish: Vec::<f64>::decode(buf)?,
            recorded: Vec::<Breakdown>::decode(buf)?,
        };
        graph.validate().map_err(|what| DecodeError {
            what,
            remaining: buf.len(),
            trailing: false,
        })?;
        Ok(graph)
    }
}

impl EventGraph {
    /// Check the structure [`mod@crate::replay`] relies on, so a graph that
    /// decodes always replays: per-rank tables as long as `nprocs`, message
    /// peers in range and never the rank itself, span names in the table
    /// and exits above the stack bottom, device waits on submitted
    /// requests, finite non-negative durations whose total stays finite,
    /// every receive FIFO-matched to a push, and no receive cycle. Returns
    /// the name of the first violation.
    fn validate(&self) -> Result<(), &'static str> {
        let p = self.nprocs;
        if self.ranks.len() != p {
            return Err("event-graph rank lists differ in number from nprocs");
        }
        if self.finish.len() != p {
            return Err("event-graph finish times differ in number from nprocs");
        }
        if self.recorded.len() != p {
            return Err("event-graph breakdowns differ in number from nprocs");
        }
        let mut total = 0.0f64;
        let mut duration = |secs: f64| {
            if !(secs.is_finite() && secs >= 0.0) {
                return Err("event-graph duration is non-finite or negative");
            }
            total += secs;
            Ok(())
        };
        // Unmatched pushes per (src, dst, tag), in program order.
        let mut pushes: HashMap<(usize, usize, u32), VecDeque<usize>> = HashMap::new();
        for (r, evs) in self.ranks.iter().enumerate() {
            let peer = |q: u32| (q as usize) < p && q as usize != r;
            let (mut depth, mut submitted) = (0usize, 0u64);
            for (i, ev) in evs.iter().enumerate() {
                match *ev {
                    Ev::Compute { kind, seconds } => {
                        if kind > COMPUTE_RAW {
                            return Err("event-graph compute kind out of range");
                        }
                        duration(seconds)?;
                    }
                    Ev::Disk { seconds, seek, .. } => {
                        duration(seconds)?;
                        duration(seek)?;
                    }
                    Ev::Fault { seconds, .. } => duration(seconds)?,
                    Ev::Push { dst, tag, seconds, lat, delay, .. } => {
                        if !peer(dst) {
                            return Err("event-graph push destination out of range or self");
                        }
                        duration(seconds)?;
                        duration(lat)?;
                        duration(delay)?;
                        pushes.entry((r, dst as usize, tag)).or_default().push_back(i);
                    }
                    Ev::Recv { src, .. } => {
                        if !peer(src) {
                            return Err("event-graph receive source out of range or self");
                        }
                    }
                    Ev::Submit { service, seek, fault, .. } => {
                        duration(service)?;
                        duration(seek)?;
                        duration(fault)?;
                        submitted += 1;
                    }
                    Ev::Wait { req, service } => {
                        if req >= submitted {
                            return Err("event-graph wait on a request never submitted");
                        }
                        duration(service)?;
                    }
                    Ev::SyncDev => {}
                    Ev::Enter { name } => {
                        if name as usize >= self.names.len() {
                            return Err("event-graph span name id out of range");
                        }
                        depth += 1;
                    }
                    Ev::Exit => {
                        if depth == 0 {
                            return Err("event-graph span exit below the stack bottom");
                        }
                        depth -= 1;
                    }
                }
            }
        }
        if !total.is_finite() {
            return Err("event-graph durations overflow the clock");
        }
        // The push each receive matches, by rank and event.
        let mut matched: Vec<Vec<(usize, usize)>> = vec![Vec::new(); p];
        for (d, evs) in self.ranks.iter().enumerate() {
            for ev in evs {
                if let Ev::Recv { src, tag } = *ev {
                    let src = src as usize;
                    let push = pushes
                        .get_mut(&(src, d, tag))
                        .and_then(VecDeque::pop_front)
                        .ok_or("event-graph receive without a FIFO-matching push")?;
                    matched[d].push((src, push));
                }
            }
        }
        // Dry run of the replay's schedule: a receive steps once its push
        // has; no progress with events left is a receive cycle.
        let mut cursor = vec![0usize; p];
        let mut recvs = vec![0usize; p];
        loop {
            let mut progress = false;
            for r in 0..p {
                let evs = &self.ranks[r];
                while cursor[r] < evs.len() {
                    if let Ev::Recv { .. } = evs[cursor[r]] {
                        let (src, push) = matched[r][recvs[r]];
                        if cursor[src] <= push {
                            break;
                        }
                        recvs[r] += 1;
                    }
                    cursor[r] += 1;
                    progress = true;
                }
            }
            if (0..p).all(|r| cursor[r] == self.ranks[r].len()) {
                return Ok(());
            }
            if !progress {
                return Err("event-graph receives form a cycle");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ev_wire_roundtrip() {
        let evs = vec![
            Ev::Compute { kind: COMPUTE_RAW, seconds: 1.25 },
            Ev::Disk { read: true, bytes: 4096, seconds: 0.5, seek: 0.01 },
            Ev::Fault { kind: FAULT_LINK, seconds: 2e-3 },
            Ev::Push {
                dst: 3,
                tag: 7,
                bytes: 100,
                seconds: 4e-5,
                lat: 4e-5,
                delay: 1e-3,
                poison: false,
            },
            Ev::Recv { src: 1, tag: 9 },
            Ev::Submit { read: false, bytes: 1 << 16, service: 0.02, seek: 0.01, fault: 0.0 },
            Ev::Wait { req: 5, service: 0.004 },
            Ev::SyncDev,
            Ev::Enter { name: 2 },
            Ev::Exit,
        ];
        let bytes = evs.to_bytes();
        assert_eq!(Vec::<Ev>::from_bytes(&bytes).unwrap(), evs);
    }

    #[test]
    fn ev_rejects_unknown_tag() {
        assert!(Ev::from_bytes(&[200u8]).is_err());
    }

    #[test]
    fn graph_wire_roundtrip_and_version_gate() {
        let g = EventGraph {
            nprocs: 2,
            names: vec!["a.b".into(), "c".into()],
            ranks: vec![
                vec![
                    Ev::Enter { name: 0 },
                    Ev::Compute { kind: 0, seconds: 1.0 },
                    Ev::Exit,
                    Ev::Push { dst: 1, tag: 1, bytes: 0, seconds: 0.5, lat: 0.5, delay: 0.0, poison: false },
                ],
                vec![Ev::Recv { src: 0, tag: 1 }],
            ],
            finish: vec![1.0, 2.0],
            recorded: vec![Breakdown { compute: 1.0, ..Breakdown::default() }, Breakdown::default()],
        };
        let bytes = g.to_bytes();
        assert_eq!(EventGraph::from_bytes(&bytes).unwrap(), g);
        // Corrupt the version word.
        let mut bad = bytes.clone();
        bad[0] = 0xFF;
        assert!(EventGraph::from_bytes(&bad).is_err());
    }

    /// A small valid graph: rank 0 submits, waits, pushes inside a span;
    /// rank 1 receives.
    fn valid_graph() -> EventGraph {
        EventGraph {
            nprocs: 2,
            names: vec!["phase".into()],
            ranks: vec![
                vec![
                    Ev::Enter { name: 0 },
                    Ev::Submit { read: true, bytes: 8, service: 0.5, seek: 0.1, fault: 0.0 },
                    Ev::Wait { req: 0, service: 0.5 },
                    Ev::Push { dst: 1, tag: 4, bytes: 8, seconds: 0.2, lat: 0.1, delay: 0.0, poison: false },
                    Ev::Exit,
                ],
                vec![Ev::Recv { src: 0, tag: 4 }, Ev::Compute { kind: 0, seconds: 1.0 }],
            ],
            finish: vec![0.7, 1.7],
            recorded: vec![Breakdown::default(); 2],
        }
    }

    /// Encode `g` and decode it back, returning the decode error's name.
    fn rejection(g: &EventGraph) -> &'static str {
        EventGraph::from_bytes(&g.to_bytes()).expect_err("corrupt graph must not load").what
    }

    #[test]
    fn decode_validates_structure() {
        let ok = valid_graph();
        assert_eq!(EventGraph::from_bytes(&ok.to_bytes()).unwrap(), ok);

        let mut g = valid_graph();
        g.ranks.pop();
        assert_eq!(rejection(&g), "event-graph rank lists differ in number from nprocs");
        let mut g = valid_graph();
        g.finish.pop();
        assert_eq!(rejection(&g), "event-graph finish times differ in number from nprocs");
        let mut g = valid_graph();
        g.recorded.push(Breakdown::default());
        assert_eq!(rejection(&g), "event-graph breakdowns differ in number from nprocs");

        for dst in [0, 2, 9] {
            let mut g = valid_graph();
            g.ranks[0][3] = Ev::Push { dst, tag: 4, bytes: 8, seconds: 0.2, lat: 0.1, delay: 0.0, poison: false };
            assert_eq!(rejection(&g), "event-graph push destination out of range or self");
        }
        for src in [1, 5] {
            let mut g = valid_graph();
            g.ranks[1][0] = Ev::Recv { src, tag: 4 };
            assert_eq!(rejection(&g), "event-graph receive source out of range or self");
        }
        let mut g = valid_graph();
        g.ranks[0][0] = Ev::Enter { name: 1 };
        assert_eq!(rejection(&g), "event-graph span name id out of range");
        let mut g = valid_graph();
        g.ranks[1].push(Ev::Exit);
        assert_eq!(rejection(&g), "event-graph span exit below the stack bottom");
        let mut g = valid_graph();
        g.ranks[0][2] = Ev::Wait { req: 1, service: 0.5 };
        assert_eq!(rejection(&g), "event-graph wait on a request never submitted");
        let mut g = valid_graph();
        g.ranks[0].swap(1, 2);
        assert_eq!(rejection(&g), "event-graph wait on a request never submitted");

        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut g = valid_graph();
            g.ranks[1][1] = Ev::Compute { kind: 0, seconds: bad };
            assert_eq!(rejection(&g), "event-graph duration is non-finite or negative");
            let mut g = valid_graph();
            g.ranks[0][3] = Ev::Push { dst: 1, tag: 4, bytes: 8, seconds: 0.2, lat: 0.1, delay: bad, poison: false };
            assert_eq!(rejection(&g), "event-graph duration is non-finite or negative");
        }
        let mut g = valid_graph();
        g.ranks[1][1] = Ev::Compute { kind: 0, seconds: f64::MAX };
        g.ranks[1].push(Ev::Compute { kind: 0, seconds: f64::MAX });
        assert_eq!(rejection(&g), "event-graph durations overflow the clock");
        let mut g = valid_graph();
        g.ranks[1][1] = Ev::Compute { kind: COMPUTE_RAW + 1, seconds: 1.0 };
        assert_eq!(rejection(&g), "event-graph compute kind out of range");

        let mut g = valid_graph();
        g.ranks[1][0] = Ev::Recv { src: 0, tag: 5 };
        assert_eq!(rejection(&g), "event-graph receive without a FIFO-matching push");
        let mut g = valid_graph();
        g.ranks[1].push(Ev::Recv { src: 0, tag: 4 });
        assert_eq!(rejection(&g), "event-graph receive without a FIFO-matching push");

        // Each rank receives before it pushes: a receive cycle.
        let mut g = valid_graph();
        g.ranks[0].insert(0, Ev::Recv { src: 1, tag: 9 });
        g.ranks[1].push(Ev::Push { dst: 0, tag: 9, bytes: 0, seconds: 0.1, lat: 0.1, delay: 0.0, poison: false });
        assert_eq!(rejection(&g), "event-graph receives form a cycle");
    }

    #[test]
    fn breakdown_busy_and_diff() {
        let a = Breakdown { compute: 1.0, comm: 2.0, io: 3.0, fault: 0.5, io_stall: 0.25, ..Breakdown::default() };
        assert!((a.busy() - 6.75).abs() < 1e-12);
        let mut b = a;
        b.io = 3.5;
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }
}

//! Rendezvous collectives: fixed-schedule collectives that synchronize once
//! per call and replay their virtual schedule.
//!
//! [`Proc::all_to_all`], [`Proc::all_gather`] and [`Proc::all_gather_ring`]
//! follow schedules that do not depend on the data they move: in step `k`
//! every member sends one message to a peer fixed by `(p, rank, k)` and
//! then receives one from another. Run over mailboxes, each step is a
//! physical round trip between OS threads, and at `p = 64` the host pays
//! for context switches rather than for the algorithm. Here every call is
//! one physical rendezvous instead:
//!
//! 1. **Deposit.** Each member of the communicator deposits its entry
//!    clock, its encoded outgoing payloads (moved, never cloned) and the
//!    fault draws of each of its sends ([`LinkDraw`], a pure function of
//!    `(src, dst, seq, attempt)`).
//! 2. **Simulate.** The last member to arrive runs the collective's step
//!    schedule as pure clock arithmetic — the same floating-point sequence
//!    as the mailbox path ([`LinkDraw::transmit`] for each send, `max` with
//!    the arrival for each receive) — producing every message's arrival
//!    time, and hands each member its incoming bytes.
//! 3. **Replay.** Every member replays its own per-step send and receive
//!    accounting in the original program order through the same
//!    [`Proc::charge_send`] / [`Proc::charge_recv`] the mailbox path uses:
//!    clock, counters, trace events, recorded `Ev::Push` / `Ev::Recv`,
//!    gauge points and link sequence numbers.
//!
//! A receive's arrival time is a function of the sender's clock at the
//! send, and per-rank clocks only ever move through the accounting above,
//! so the replayed run is bit-identical to the mailbox run it replaces.
//!
//! Slots are keyed by the communicator's member set, so concurrent scoped
//! subgroups rendezvous independently; a slot is dropped as soon as no
//! member is inside a call on it. Within a slot, call `g`'s results sit in
//! buffer `g % 2` while the members of call `g + 1` deposit: a member can
//! only deposit into call `g + 2` after every member has left call `g + 1`,
//! hence after every member has taken its results of call `g`.
//!
//! A member that never arrives, or arrives at a different collective (or
//! with a different part count), ends the run in a named error rather than
//! a hang or garbage data: a mismatch is reported by the last arriver to
//! every member; a missing member by the event executor's quiescence
//! detector or by the thread backend's wall-clock timeout.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::cost::NetworkParams;
use crate::exec::{ExecMode, RankState, ABORT_SENTINEL};
use crate::fault::LinkFaults;
use crate::proc::{LinkDraw, Proc};
use crate::topology::{is_pow2, log2ceil};

/// Step schedule of a rendezvous collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// Personalized all-to-all, `p - 1` steps: in step `k` exchange with
    /// `rank ^ k` when `p` is a power of two, otherwise send to
    /// `rank + k` and receive from `rank - k` (mod `p`).
    Pairwise,
    /// Recursive-doubling all-gather, `log2 p` steps: in step `i` exchange
    /// everything gathered so far with `rank ^ 2^i`.
    Doubling,
    /// Ring all-gather, `p - 1` steps: send to `rank + 1` what was
    /// received from `rank - 1` in the previous step.
    Ring,
}

impl Schedule {
    /// Number of steps on a communicator of `p` members.
    pub(crate) fn steps(self, p: usize) -> usize {
        match self {
            Schedule::Pairwise | Schedule::Ring => p - 1,
            Schedule::Doubling => log2ceil(p) as usize,
        }
    }

    /// `(dst, src, tag offset)` of step `k` for member `r` of `p`.
    pub(crate) fn step(self, p: usize, r: usize, k: usize) -> (usize, usize, u32) {
        match self {
            Schedule::Pairwise => {
                let k = k + 1;
                let tag = (k as u32 & 0xFFFF) << 8;
                if is_pow2(p) {
                    (r ^ k, r ^ k, tag)
                } else {
                    ((r + k) % p, (r + p - k) % p, tag)
                }
            }
            Schedule::Doubling => {
                let peer = r ^ (1 << k);
                (peer, peer, (k as u32) << 8)
            }
            Schedule::Ring => ((r + 1) % p, (r + p - 1) % p, (k as u32 & 0xFF) << 8),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Schedule::Pairwise => "pairwise",
            Schedule::Doubling => "doubling",
            Schedule::Ring => "ring",
        }
    }
}

/// A member's outgoing data.
pub(crate) enum Payload {
    /// One encoded part per member (the caller's own slot empty).
    Parts(Vec<Vec<u8>>),
    /// One encoded value for every member.
    Value(Vec<u8>),
}

/// What one member brings to a rendezvous.
pub(crate) struct Deposit {
    /// Collective name, for diagnostics and the mismatch check.
    pub op: &'static str,
    pub schedule: Schedule,
    pub tag_base: u32,
    /// Virtual clock at entry.
    pub clock: f64,
    pub payload: Payload,
    /// Fault draws of this member's send in each step.
    pub draws: Vec<LinkDraw>,
}

impl Deposit {
    fn describe(&self) -> String {
        match &self.payload {
            Payload::Parts(parts) => {
                format!(
                    "{} ({}, {} parts)",
                    self.op,
                    self.schedule.name(),
                    parts.len()
                )
            }
            Payload::Value(_) => format!("{} ({})", self.op, self.schedule.name()),
        }
    }
}

/// The message a member receives in one step.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arrival {
    /// A payload of `len` bytes arriving at virtual time `at`.
    Msg { at: f64, len: usize },
    /// The poison tombstone of a send that failed permanently.
    Poison { at: f64 },
    /// Nothing: the sender stopped at an earlier step.
    Lost,
}

/// One step of one member's replay.
pub(crate) struct StepIo {
    /// Fault draws of this member's send.
    pub draw: LinkDraw,
    /// Encoded bytes this member sends.
    pub send_len: usize,
    pub recv: Arrival,
    /// This member's clock after the step, as simulated (replay checks it).
    pub clock: f64,
}

/// Incoming payloads of one member.
pub(crate) enum Delivered {
    /// Indexed by source member (the member's own slot empty).
    Parts(Vec<Vec<u8>>),
    /// Every member's value, indexed by member, shared by all receivers.
    Values(Arc<Vec<Vec<u8>>>),
}

/// One member's share of a completed rendezvous.
pub(crate) struct Exchange {
    pub steps: Vec<StepIo>,
    pub delivered: Delivered,
}

/// Encoded size of one `(u64 rank, Vec<u8> value)` entry of the
/// all-gather messages: the rank, the byte count, the bytes.
fn entry_len(value_len: usize) -> usize {
    16 + value_len
}

/// Encoded size of a message carrying `entries` bytes of entries (the
/// `Vec` count prefix plus the entries).
fn message_len(entries: usize) -> usize {
    8 + entries
}

/// Check that every member called the same collective with a well-formed
/// payload; the error names every variant seen and who called it.
fn check_agreement(members: &[usize], deposits: &[Deposit]) -> Result<(), String> {
    let p = members.len();
    let first = &deposits[0];
    let agree = deposits.iter().all(|d| {
        d.op == first.op
            && d.schedule == first.schedule
            && d.tag_base == first.tag_base
            && match &d.payload {
                Payload::Parts(parts) => parts.len() == p,
                Payload::Value(_) => true,
            }
    });
    if agree {
        return Ok(());
    }
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (l, d) in deposits.iter().enumerate() {
        let what = d.describe();
        match groups.iter_mut().find(|(w, _)| *w == what) {
            Some((_, ranks)) => ranks.push(members[l]),
            None => groups.push((what, vec![members[l]])),
        }
    }
    let calls: Vec<String> = groups
        .iter()
        .map(|(what, ranks)| format!("ranks {ranks:?} called {what}"))
        .collect();
    Err(format!(
        "cgm: collective mismatch on communicator {members:?} ({p} members): {}",
        calls.join("; ")
    ))
}

/// Byte count of the message each member sends in each step, indexed
/// `[member][step]`.
fn send_lens(schedule: Schedule, deposits: &[Deposit]) -> Vec<Vec<usize>> {
    let p = deposits.len();
    let steps = 0..schedule.steps(p);
    if schedule == Schedule::Pairwise {
        return deposits
            .iter()
            .enumerate()
            .map(|(r, d)| {
                let Payload::Parts(parts) = &d.payload else {
                    unreachable!("agreement checked")
                };
                steps
                    .clone()
                    .map(|k| parts[schedule.step(p, r, k).0].len())
                    .collect()
            })
            .collect();
    }
    // prefix[s] = encoded entry bytes of members 0..s.
    let mut prefix = vec![0usize];
    for d in deposits {
        let Payload::Value(v) = &d.payload else {
            unreachable!("agreement checked")
        };
        prefix.push(prefix[prefix.len() - 1] + entry_len(v.len()));
    }
    (0..p)
        .map(|r| {
            steps
                .clone()
                .map(|k| {
                    let (lo, hi) = if schedule == Schedule::Doubling {
                        // Step k carries the aligned block of 2^k members
                        // holding r.
                        let lo = (r >> k) << k;
                        (lo, lo + (1 << k))
                    } else {
                        // Step k forwards the entry of member r - k.
                        let s = (r + p - k) % p;
                        (s, s + 1)
                    };
                    message_len(prefix[hi] - prefix[lo])
                })
                .collect()
        })
        .collect()
}

/// Run the agreed schedule as clock arithmetic and split the payloads:
/// the last arriver's work.
fn complete(
    net: &NetworkParams,
    link: &LinkFaults,
    members: &[usize],
    mut deposits: Vec<Deposit>,
) -> Result<Vec<Exchange>, String> {
    check_agreement(members, &deposits)?;
    let p = members.len();
    let schedule = deposits[0].schedule;
    let steps = schedule.steps(p);
    let send_lens = send_lens(schedule, &deposits);
    let mut clock: Vec<f64> = deposits.iter().map(|d| d.clock).collect();
    let mut alive = vec![true; p];
    let mut ios: Vec<Vec<StepIo>> = (0..p).map(|_| Vec::with_capacity(steps)).collect();
    let mut inbound = vec![Arrival::Lost; p];
    let mut sent = vec![(LinkDraw::default(), 0usize); p];
    for k in 0..steps {
        inbound.fill(Arrival::Lost);
        for r in 0..p {
            if !alive[r] {
                continue;
            }
            let (dst, _, _) = schedule.step(p, r, k);
            let len = send_lens[r][k];
            let draw = deposits[r].draws[k];
            let (after, arrival) = draw.transmit(clock[r], net.message_cost(len), link);
            clock[r] = after;
            sent[r] = (draw, len);
            inbound[dst] = match arrival {
                Ok(at) => Arrival::Msg { at, len },
                Err(at) => {
                    // The sender stops here: its replay ends in the failed
                    // send.
                    alive[r] = false;
                    ios[r].push(StepIo {
                        draw,
                        send_len: len,
                        recv: Arrival::Lost,
                        clock: after,
                    });
                    Arrival::Poison { at }
                }
            };
        }
        for r in 0..p {
            if !alive[r] {
                continue;
            }
            let recv = inbound[r];
            match recv {
                Arrival::Msg { at, .. } => {
                    if at > clock[r] {
                        clock[r] = at;
                    }
                }
                Arrival::Poison { at } => {
                    if at > clock[r] {
                        clock[r] = at;
                    }
                    alive[r] = false;
                }
                Arrival::Lost => alive[r] = false,
            }
            let (draw, send_len) = sent[r];
            ios[r].push(StepIo {
                draw,
                send_len,
                recv,
                clock: clock[r],
            });
        }
    }
    let mut ios = ios.into_iter();
    match schedule {
        Schedule::Pairwise => {
            let mut inboxes: Vec<Vec<Vec<u8>>> = (0..p)
                .map(|_| (0..p).map(|_| Vec::new()).collect())
                .collect();
            for (src, d) in deposits.iter_mut().enumerate() {
                let Payload::Parts(parts) = &mut d.payload else {
                    unreachable!()
                };
                for (dst, part) in parts.iter_mut().enumerate() {
                    inboxes[dst][src] = std::mem::take(part);
                }
            }
            Ok(inboxes
                .into_iter()
                .map(|inbox| Exchange {
                    steps: ios.next().unwrap(),
                    delivered: Delivered::Parts(inbox),
                })
                .collect())
        }
        Schedule::Doubling | Schedule::Ring => {
            let values: Arc<Vec<Vec<u8>>> = Arc::new(
                deposits
                    .into_iter()
                    .map(|d| match d.payload {
                        Payload::Value(v) => v,
                        Payload::Parts(_) => unreachable!(),
                    })
                    .collect(),
            );
            Ok((0..p)
                .map(|_| Exchange {
                    steps: ios.next().unwrap(),
                    delivered: Delivered::Values(Arc::clone(&values)),
                })
                .collect())
        }
    }
}

/// Results of one completed call.
struct Done {
    gen: u64,
    results: Result<Vec<Option<Exchange>>, String>,
}

struct SlotState {
    /// Generation of the call currently collecting deposits.
    gen: u64,
    /// Deposits of that call, by member index.
    deposits: Vec<Option<Deposit>>,
    arrived: usize,
    /// Results by generation parity.
    done: [Option<Done>; 2],
}

/// The rendezvous point of one communicator.
pub(crate) struct Slot {
    state: Mutex<SlotState>,
    /// Thread backend: members wait here for the last arriver.
    cv: Condvar,
}

impl Slot {
    fn new(members: usize) -> Slot {
        Slot {
            state: Mutex::new(SlotState {
                gen: 0,
                deposits: (0..members).map(|_| None).collect(),
                arrived: 0,
                done: [None, None],
            }),
            cv: Condvar::new(),
        }
    }

    /// Take member `local`'s share of call `gen`, if that call completed.
    fn take(&self, gen: u64, local: usize) -> Option<Result<Exchange, String>> {
        let mut st = self.state.lock();
        match &mut st.done[(gen & 1) as usize] {
            Some(done) if done.gen == gen => Some(match &mut done.results {
                Ok(shares) => Ok(shares[local].take().expect("rendezvous share taken twice")),
                Err(msg) => Err(msg.clone()),
            }),
            _ => None,
        }
    }

    /// Thread backend: wait until call `gen` completed or `timeout`
    /// passed; false on timeout.
    fn wait(&self, gen: u64, timeout: Duration) -> bool {
        let mut st = self.state.lock();
        let ready =
            |st: &SlotState| matches!(&st.done[(gen & 1) as usize], Some(done) if done.gen == gen);
        while !ready(&st) {
            if self.cv.wait_for(&mut st, timeout).timed_out() {
                return ready(&st);
            }
        }
        true
    }

    /// Which members have deposited into call `gen` (all of them once it
    /// completed).
    fn arrivals(&self, gen: u64, members: usize) -> Vec<bool> {
        let st = self.state.lock();
        if st.gen != gen {
            return vec![true; members];
        }
        st.deposits.iter().map(Option::is_some).collect()
    }
}

/// Where a member stands after depositing.
struct Ticket {
    slot: Arc<Slot>,
    gen: u64,
    /// This member arrived last and completed the call.
    last: bool,
}

/// The machine's rendezvous slots, keyed by communicator member set. A slot
/// lives while some member is inside a call on it.
#[derive(Default)]
pub(crate) struct Rendezvous {
    slots: Mutex<HashMap<Arc<[usize]>, (Arc<Slot>, usize)>>,
}

impl Rendezvous {
    /// Deposit member `local`'s contribution to the next call on `members`;
    /// the last arriver completes the call.
    fn arrive(
        &self,
        members: &Arc<[usize]>,
        local: usize,
        deposit: Deposit,
        net: &NetworkParams,
        link: &LinkFaults,
    ) -> Ticket {
        let slot = {
            let mut slots = self.slots.lock();
            let entry = slots
                .entry(Arc::clone(members))
                .or_insert_with(|| (Arc::new(Slot::new(members.len())), 0));
            entry.1 += 1;
            Arc::clone(&entry.0)
        };
        let mut st = slot.state.lock();
        let p = members.len();
        assert!(
            st.deposits[local].is_none(),
            "cgm: rank {} entered a rendezvous twice",
            members[local]
        );
        st.deposits[local] = Some(deposit);
        st.arrived += 1;
        let gen = st.gen;
        let last = st.arrived == p;
        if last {
            let deposits: Vec<Deposit> =
                st.deposits.iter_mut().map(|d| d.take().unwrap()).collect();
            st.arrived = 0;
            st.gen += 1;
            let results = complete(net, link, members, deposits)
                .map(|shares| shares.into_iter().map(Some).collect());
            st.done[(gen & 1) as usize] = Some(Done { gen, results });
        }
        drop(st);
        Ticket { slot, gen, last }
    }

    /// A member left its call on `members`; drop the slot once nobody is
    /// inside one.
    fn leave(&self, members: &Arc<[usize]>) {
        let mut slots = self.slots.lock();
        if let Some(entry) = slots.get_mut(members) {
            entry.1 -= 1;
            if entry.1 == 0 {
                slots.remove(members);
            }
        }
    }
}

impl Proc {
    /// Run one call of a fixed-schedule collective on the active
    /// communicator: deposit, wait for the last arriver, replay this
    /// member's accounting. Returns the incoming payloads. Panics with a
    /// named error when the members disagree on the call, and when a
    /// permanent link failure breaks the schedule (as the mailbox path
    /// would).
    pub(crate) fn rendezvous(
        &mut self,
        op: &'static str,
        schedule: Schedule,
        tag_base: u32,
        payload: Payload,
    ) -> Delivered {
        let comm = self.comm();
        let (p, me) = (comm.len(), self.rank());
        let steps = schedule.steps(p);
        let draws: Vec<LinkDraw> = (0..steps)
            .map(|k| self.draw_link(comm[schedule.step(p, me, k).0]))
            .collect();
        let deposit = Deposit {
            op,
            schedule,
            tag_base,
            clock: self.clock(),
            payload,
            draws,
        };
        let exchange = self.await_rendezvous(&comm, deposit);
        for (k, io) in exchange.steps.iter().enumerate() {
            let (dst, src, offset) = schedule.step(p, me, k);
            let tag = tag_base + offset;
            if self
                .charge_send(comm[dst], tag, io.send_len, io.draw)
                .is_err()
            {
                let e = crate::FaultError::Link {
                    src: self.world_rank(),
                    dst: comm[dst],
                };
                panic!(
                    "cgm: rank {} send to {dst} tag {tag:#x} failed: {e}",
                    self.world_rank()
                );
            }
            let received = match io.recv {
                Arrival::Msg { at, len } => self.charge_recv(comm[src], tag, at, false, len),
                Arrival::Poison { at } => self.charge_recv(comm[src], tag, at, true, 0),
                Arrival::Lost => panic!(
                    "{ABORT_SENTINEL}rank {} abandoned {op}: rank {} stopped at an earlier step",
                    self.world_rank(),
                    comm[src]
                ),
            };
            if let Err(e) = received {
                panic!(
                    "cgm: rank {} recv from {src} tag {tag:#x} failed: {e}",
                    self.world_rank()
                );
            }
            debug_assert_eq!(
                self.clock().to_bits(),
                io.clock.to_bits(),
                "rendezvous replay diverged from the simulated schedule"
            );
        }
        exchange.delivered
    }

    /// Deposit and wait for this member's share, on either backend.
    fn await_rendezvous(&self, comm: &Arc<[usize]>, deposit: Deposit) -> Exchange {
        let shared = self.shared();
        let (me, op) = (self.rank(), deposit.op);
        let ticket =
            shared
                .rendezvous
                .arrive(comm, me, deposit, &shared.cost.network, &shared.faults.link);
        if ticket.last {
            match &shared.exec {
                ExecMode::Event { sched } => {
                    for (l, &m) in comm.iter().enumerate() {
                        if l != me {
                            sched.wake(m);
                        }
                    }
                }
                ExecMode::Thread { .. } => ticket.slot.cv.notify_all(),
            }
        }
        let share = loop {
            if let Some(share) = ticket.slot.take(ticket.gen, me) {
                break share;
            }
            match &shared.exec {
                ExecMode::Event { sched } => sched.park(
                    self.world_rank(),
                    RankState::AtRendezvous {
                        op,
                        comm: Arc::clone(comm),
                    },
                ),
                ExecMode::Thread { timeout, board } => {
                    if !ticket.slot.wait(ticket.gen, *timeout) {
                        let arrived = ticket.slot.arrivals(ticket.gen, comm.len());
                        let (mut came, mut missing) = (Vec::new(), Vec::new());
                        for (&m, &here) in comm.iter().zip(&arrived) {
                            if here {
                                came.push(m);
                            } else {
                                missing.push(m);
                            }
                        }
                        let blocked: Vec<String> = board
                            .blocked_now()
                            .iter()
                            .map(|&(r, s, t)| format!("rank {r} <- recv(src={s}, tag={t:#x})"))
                            .collect();
                        panic!(
                            "cgm: rank {} timed out after {timeout:.0?} at rendezvous {op} on \
                             communicator {comm:?}: arrived ranks {came:?}, missing ranks \
                             {missing:?} (thread backend's wall-clock deadlock detector). \
                             Ranks blocked in receives: [{}]",
                            self.world_rank(),
                            blocked.join("; ")
                        );
                    }
                }
            }
        };
        shared.rendezvous.leave(comm);
        share.unwrap_or_else(|msg| panic!("{msg}"))
    }
}

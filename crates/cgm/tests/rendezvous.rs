//! Differential suite of the rendezvous collectives.
//!
//! `all_to_all`, `all_gather` and `all_gather_ring` synchronize once per
//! call and replay their virtual schedule (see `cgm::rendezvous`). This
//! file keeps the mailbox schedules they replaced as reference
//! implementations on the public `send` / `recv` API and asserts, per rank,
//! that both produce the same results, clock bits, counters, trace events,
//! spans, gauge points and recorded event streams — across machine widths,
//! payload shapes, skewed entry clocks, observation flags, link faults,
//! both executors and concurrent scoped subgroups. Recorded graphs must
//! also replay bit-exactly.
//!
//! It also pins the named failures of a missing or mismatched participant
//! on both executors.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use pdc_cgm::proc::RESERVED_TAG_BASE;
use pdc_cgm::topology::{is_pow2, log2ceil, partner};
use pdc_cgm::{
    identity_check, Backend, Cluster, CollectiveTuning, EventGraph, FaultPlan, Group,
    MachineConfig, OpKind, Proc, RunOutput, Wire,
};

const TAG_ALLGATHER: u32 = RESERVED_TAG_BASE + 6;
const TAG_ALLTOALL: u32 = RESERVED_TAG_BASE + 7;
const TAG_ALLGATHER_RING: u32 = RESERVED_TAG_BASE + 14;

// ----------------------------------------------------------------------
// Reference implementations: the pairwise-exchange all-to-all and the
// doubling / ring all-gathers as mailbox schedules.
// ----------------------------------------------------------------------

fn attr_bytes<T: Wire>(proc: &Proc, value: &T) -> i64 {
    if proc.spans_enabled() {
        value.to_bytes().len() as i64
    } else {
        0
    }
}

fn ref_all_to_all<T: Wire>(proc: &mut Proc, parts: Vec<T>) -> Vec<T> {
    let bytes = attr_bytes(proc, &parts);
    let t = proc.span("cgm.all_to_all", &[("bytes", bytes)]);
    let p = proc.nprocs();
    assert_eq!(parts.len(), p);
    let out = if p == 1 {
        parts
    } else {
        let me = proc.rank();
        let mut parts: Vec<Option<T>> = parts.into_iter().map(Some).collect();
        let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
        slots[me] = parts[me].take();
        for k in 1..p {
            let tag = TAG_ALLTOALL + ((k as u32 & 0xFFFF) << 8);
            if is_pow2(p) {
                let peer = me ^ k;
                let outgoing = parts[peer].take().unwrap();
                slots[peer] = Some(proc.exchange(peer, tag, &outgoing));
            } else {
                let to = (me + k) % p;
                let from = (me + p - k) % p;
                let outgoing = parts[to].take().unwrap();
                proc.send(to, tag, &outgoing);
                slots[from] = Some(proc.recv(from, tag));
            }
        }
        slots.into_iter().map(Option::unwrap).collect()
    };
    proc.span_end(t);
    out
}

/// The ring all-gather steps: forward what the previous step received.
fn ref_ring(proc: &mut Proc, acc: &mut Vec<(u64, Vec<u8>)>, tag_base: u32) {
    let p = proc.nprocs();
    let next = (proc.rank() + 1) % p;
    let prev = (proc.rank() + p - 1) % p;
    let mut to_forward = acc.clone();
    for i in 0..p - 1 {
        let tag = tag_base + ((i as u32 & 0xFF) << 8);
        proc.send(next, tag, &to_forward);
        let received: Vec<(u64, Vec<u8>)> = proc.recv(prev, tag);
        acc.extend(received.iter().cloned());
        to_forward = received;
    }
}

fn decode_sorted<T: Wire>(mut acc: Vec<(u64, Vec<u8>)>) -> Vec<T> {
    acc.sort_by_key(|(rank, _)| *rank);
    acc.into_iter()
        .map(|(_, b)| T::from_bytes(&b).unwrap())
        .collect()
}

fn ref_all_gather<T: Wire>(proc: &mut Proc, value: T) -> Vec<T> {
    let bytes = attr_bytes(proc, &value);
    let t = proc.span("cgm.all_gather", &[("bytes", bytes)]);
    let p = proc.nprocs();
    let out = if p == 1 {
        vec![value]
    } else {
        let mut acc = vec![(proc.rank() as u64, value.to_bytes())];
        let use_doubling = is_pow2(p) && {
            if proc.collective_tuning().adaptive {
                let net = proc.cost_model().network;
                let m = acc[0].1.len();
                net.doubling_all_gather_cost(m, p) <= net.ring_all_gather_cost(m, p)
            } else {
                true
            }
        };
        if use_doubling {
            for i in 0..log2ceil(p) {
                let peer = partner(proc.rank(), i);
                let mut other: Vec<(u64, Vec<u8>)> =
                    proc.exchange(peer, TAG_ALLGATHER + (i << 8), &acc);
                acc.append(&mut other);
            }
        } else {
            ref_ring(proc, &mut acc, TAG_ALLGATHER);
        }
        decode_sorted(acc)
    };
    proc.span_end(t);
    out
}

fn ref_all_gather_ring<T: Wire>(proc: &mut Proc, value: T) -> Vec<T> {
    let bytes = attr_bytes(proc, &value);
    let t = proc.span("cgm.all_gather.ring", &[("bytes", bytes)]);
    let out = if proc.nprocs() == 1 {
        vec![value]
    } else {
        let mut acc = vec![(proc.rank() as u64, value.to_bytes())];
        ref_ring(proc, &mut acc, TAG_ALLGATHER_RING);
        decode_sorted(acc)
    };
    proc.span_end(t);
    out
}

// ----------------------------------------------------------------------
// The workload both implementations run.
// ----------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct Outputs {
    uneven: Vec<Vec<u32>>,
    empty: Vec<Vec<u8>>,
    large: Vec<Vec<u64>>,
    gathered: Vec<Vec<u16>>,
    ring: Vec<(u64, Vec<u8>)>,
    big_gather: Vec<Vec<u8>>,
    clocks: Vec<u64>,
}

/// Which implementation a run uses: the collectives under test, or the
/// mailbox schedules above.
#[derive(Clone, Copy)]
enum Side {
    Rendezvous,
    Mailbox,
}

impl Side {
    fn all_to_all<T: Wire>(self, proc: &mut Proc, parts: Vec<T>) -> Vec<T> {
        match self {
            Side::Rendezvous => proc.all_to_all(parts),
            Side::Mailbox => ref_all_to_all(proc, parts),
        }
    }

    fn all_gather<T: Wire>(self, proc: &mut Proc, value: T) -> Vec<T> {
        match self {
            Side::Rendezvous => proc.all_gather(value),
            Side::Mailbox => ref_all_gather(proc, value),
        }
    }

    fn all_gather_ring<T: Wire>(self, proc: &mut Proc, value: T) -> Vec<T> {
        match self {
            Side::Rendezvous => proc.all_gather_ring(value),
            Side::Mailbox => ref_all_gather_ring(proc, value),
        }
    }
}

/// Skewed compute between collectives of empty, uneven and large parts.
fn workload(proc: &mut Proc, side: Side) -> Outputs {
    let (r, p) = (proc.rank(), proc.nprocs());
    let skew = |proc: &mut Proc, salt: usize| {
        proc.charge(OpKind::Misc, 100 + 1000 * ((r * 7 + salt) % 5) as u64);
    };
    skew(proc, 0);
    let uneven = (0..p)
        .map(|j| vec![(r * p + j) as u32; (r * 3 + j) % 7])
        .collect();
    let uneven = side.all_to_all(proc, uneven);
    skew(proc, 1);
    let empty = side.all_to_all(proc, vec![Vec::<u8>::new(); p]);
    // One large part per rank, to its ring successor.
    let large = (0..p)
        .map(|j| {
            if j == (r + 1) % p {
                vec![r as u64; 1500]
            } else {
                vec![j as u64]
            }
        })
        .collect();
    let large = side.all_to_all(proc, large);
    skew(proc, 2);
    let gathered = side.all_gather(proc, vec![r as u16; r % 5]);
    skew(proc, 3);
    let ring = side.all_gather_ring(proc, (r as u64, vec![r as u8; (r * 11) % 13]));
    let big_gather = side.all_gather(proc, vec![r as u8; if r == 0 { 5000 } else { r % 3 }]);
    let clocks = side.all_gather(proc, proc.clock().to_bits());
    Outputs {
        uneven,
        empty,
        large,
        gathered,
        ring,
        big_gather,
        clocks,
    }
}

/// Run the workload on the world, or concurrently on `groups` disjoint
/// scoped subgroups.
fn run(p: usize, cfg: &MachineConfig, groups: usize, side: Side) -> RunOutput<Outputs> {
    let parts = if groups > 1 {
        let costs: Vec<f64> = (0..groups).map(|g| 1.0 + g as f64).collect();
        Group::world(p).split_k_by_cost(&costs)
    } else {
        vec![Group::world(p)]
    };
    Cluster::with_config(p, cfg.clone()).run(|proc| {
        let me = proc.world_rank();
        let group = parts.iter().find(|g| g.contains(me)).unwrap();
        proc.scoped(group, |proc| workload(proc, side))
    })
}

fn check_identical(label: &str, got: &RunOutput<Outputs>, want: &RunOutput<Outputs>, record: bool) {
    assert_eq!(got.results, want.results, "{label}: results diverge");
    for (rank, (g, w)) in got.stats.iter().zip(&want.stats).enumerate() {
        assert_eq!(
            g.finish_time.to_bits(),
            w.finish_time.to_bits(),
            "{label} rank {rank}: finish bits diverge"
        );
        assert_eq!(
            g.counters, w.counters,
            "{label} rank {rank}: counters diverge"
        );
        // Debug renders every float by its shortest round-trip digits, so
        // equal strings mean equal bits.
        assert_eq!(
            format!("{:?}", g.trace),
            format!("{:?}", w.trace),
            "{label} rank {rank}: trace"
        );
        assert_eq!(
            format!("{:?}", g.spans),
            format!("{:?}", w.spans),
            "{label} rank {rank}: spans"
        );
        assert_eq!(
            format!("{:?}", g.gauges),
            format!("{:?}", w.gauges),
            "{label} rank {rank}: gauges"
        );
        assert_eq!(
            format!("{:?}", g.events),
            format!("{:?}", w.events),
            "{label} rank {rank}: events"
        );
        assert_eq!(
            g.event_names, w.event_names,
            "{label} rank {rank}: event names"
        );
    }
    if record {
        identity_check(&EventGraph::from_stats(&got.stats));
    }
}

fn config(backend: Backend, faults: bool, observe: bool) -> MachineConfig {
    let mut cfg = MachineConfig {
        backend,
        event_workers: 2,
        trace: observe,
        spans: observe,
        gauges: observe,
        record: observe,
        ..MachineConfig::default()
    };
    if faults {
        let mut plan = FaultPlan::with_seed(23);
        plan.link.drop_prob = 0.2;
        plan.link.delay_prob = 0.2;
        plan.link.max_retries = 64;
        cfg.faults = plan;
    }
    cfg
}

#[test]
fn rendezvous_collectives_match_the_mailbox_schedules() {
    for p in [1usize, 2, 3, 5, 7, 8, 13, 16, 64] {
        for backend in [Backend::Thread, Backend::Event] {
            for faults in [false, true] {
                for observe in [false, true] {
                    let cfg = config(backend, faults, observe);
                    let label = format!(
                        "p={p} backend={} faults={faults} observe={observe}",
                        backend.name()
                    );
                    let want = run(p, &cfg, 1, Side::Mailbox);
                    let got = run(p, &cfg, 1, Side::Rendezvous);
                    check_identical(&label, &got, &want, observe);
                }
            }
        }
    }
}

#[test]
fn adaptive_tuning_keeps_the_schedules_identical() {
    for p in [3usize, 8, 16] {
        let mut cfg = config(Backend::Thread, false, true);
        cfg.collectives = CollectiveTuning::adaptive();
        let want = run(p, &cfg, 1, Side::Mailbox);
        let got = run(p, &cfg, 1, Side::Rendezvous);
        check_identical(&format!("adaptive p={p}"), &got, &want, true);
    }
}

#[test]
fn concurrent_scoped_subgroups_rendezvous_independently() {
    for p in [5usize, 8, 13, 16] {
        for backend in [Backend::Thread, Backend::Event] {
            for faults in [false, true] {
                let groups = if p >= 8 { 3 } else { 2 };
                let cfg = config(backend, faults, true);
                let label = format!(
                    "p={p} groups={groups} backend={} faults={faults}",
                    backend.name()
                );
                let want = run(p, &cfg, groups, Side::Mailbox);
                let got = run(p, &cfg, groups, Side::Rendezvous);
                check_identical(&label, &got, &want, true);
            }
        }
    }
}

#[test]
fn repeated_calls_reuse_the_slot_across_generations() {
    // Ranks race ahead by whole calls (rank-skewed compute is virtual, so
    // the physical order is arbitrary): many back-to-back calls on one
    // communicator must keep every generation's payloads apart.
    for backend in [Backend::Thread, Backend::Event] {
        let cfg = MachineConfig {
            backend,
            event_workers: 2,
            ..MachineConfig::default()
        };
        let out = Cluster::with_config(6, cfg).run(|proc| {
            let (r, p) = (proc.rank(), proc.nprocs());
            let mut sum = 0u64;
            for call in 0..50u64 {
                let got =
                    proc.all_to_all((0..p).map(|j| call * 100 + (r * p + j) as u64).collect());
                for (src, v) in got.iter().enumerate() {
                    assert_eq!(*v, call * 100 + (src * p + r) as u64, "call {call}");
                }
                let all = proc.all_gather(call + r as u64);
                sum += all.iter().sum::<u64>();
            }
            sum
        });
        let want: u64 = (0..50u64).map(|c| 6 * c + 15).sum();
        assert!(out.results.iter().all(|&s| s == want), "{:?}", out.results);
    }
}

// ----------------------------------------------------------------------
// Named failures of a missing or mismatched participant.
// ----------------------------------------------------------------------

/// Run `body` on 4 ranks and return the panic message of the run.
fn failure(cfg: MachineConfig, body: impl Fn(&mut Proc) + Sync) -> String {
    let err = catch_unwind(AssertUnwindSafe(|| {
        Cluster::with_config(4, cfg).run(|proc| body(proc));
    }))
    .expect_err("the run must fail");
    err.downcast_ref::<String>().cloned().unwrap_or_default()
}

fn skips_all_to_all(proc: &mut Proc) {
    if proc.rank() != 1 {
        let _ = proc.all_to_all(vec![0u64; proc.nprocs()]);
    }
}

fn mixes_collectives(proc: &mut Proc) {
    if proc.rank() == 0 {
        let _ = proc.all_gather(1u64);
    } else {
        let _ = proc.all_to_all(vec![0u64; proc.nprocs()]);
    }
}

fn short_part_count(proc: &mut Proc) {
    let n = if proc.rank() == 2 { 3 } else { proc.nprocs() };
    let _ = proc.all_to_all(vec![0u64; n]);
}

fn assert_mismatch_named(msg: &str) {
    assert!(
        msg.contains("collective mismatch on communicator [0, 1, 2, 3]"),
        "{msg}"
    );
}

#[test]
fn event_executor_names_missing_and_mismatched_participants() {
    let cfg = MachineConfig {
        backend: Backend::Event,
        event_workers: 2,
        ..MachineConfig::default()
    };
    let msg = failure(cfg.clone(), skips_all_to_all);
    assert!(msg.contains("structural deadlock"), "{msg}");
    assert!(
        msg.contains("rendezvous all_to_all on communicator [0, 1, 2, 3]"),
        "{msg}"
    );
    assert!(
        msg.contains("arrived ranks [0, 2, 3], missing ranks [1] ([1] already finished)"),
        "{msg}"
    );

    let msg = failure(cfg.clone(), mixes_collectives);
    assert_mismatch_named(&msg);
    assert!(
        msg.contains("ranks [0] called all_gather (doubling)"),
        "{msg}"
    );
    assert!(
        msg.contains("ranks [1, 2, 3] called all_to_all (pairwise, 4 parts)"),
        "{msg}"
    );

    let msg = failure(cfg, short_part_count);
    assert_mismatch_named(&msg);
    assert!(
        msg.contains("ranks [2] called all_to_all (pairwise, 3 parts)"),
        "{msg}"
    );
}

#[test]
fn thread_executor_names_missing_and_mismatched_participants() {
    let cfg = MachineConfig {
        backend: Backend::Thread,
        recv_timeout: Duration::from_millis(300),
        ..MachineConfig::default()
    };
    // The missing rank never arrives, so the timeout cannot race a late
    // arrival; the other members are listed once they deposited, which
    // happens long before the timeout.
    let msg = failure(cfg.clone(), skips_all_to_all);
    assert!(msg.contains("timed out"), "{msg}");
    assert!(
        msg.contains("rendezvous all_to_all on communicator [0, 1, 2, 3]"),
        "{msg}"
    );
    assert!(msg.contains("missing ranks [1]"), "{msg}");

    let msg = failure(cfg.clone(), mixes_collectives);
    assert_mismatch_named(&msg);
    assert!(
        msg.contains("ranks [0] called all_gather (doubling)"),
        "{msg}"
    );

    let msg = failure(cfg, short_part_count);
    assert_mismatch_named(&msg);
    assert!(
        msg.contains("ranks [2] called all_to_all (pairwise, 3 parts)"),
        "{msg}"
    );
}

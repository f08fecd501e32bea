//! pCLOUDS as an instance of the generic out-of-core divide-and-conquer
//! framework (Section 5 of the paper).
//!
//! **Large nodes** (data parallelism, all I/O local):
//!
//! 1. *Statistics* — each processor accumulates interval class frequencies
//!    and categorical count matrices over its local partition (one
//!    streaming pass, or for free when the parent's partition pass fused
//!    them in).
//! 2. *Deriving the splitting point* — the **replication method** with the
//!    **attribute-based approach**: each attribute's statistics are
//!    combined to an owning processor (global combine); owners prefix-sum
//!    the frequency vectors and evaluate gini at the interval boundaries;
//!    a min-loc reduction yields `gini_min`; owners determine the **alive
//!    intervals** (SSE lower bound) and the statuses are broadcast
//!    (all-gather); alive intervals are LPT-assigned, their points shipped
//!    with one personalized all-to-all (**single-assignment approach**),
//!    sorted and scanned exactly; a final min-loc + broadcast fixes the
//!    splitter.
//! 3. *Partitioning* — sample points are split first (giving the child
//!    interval sets), then each processor streams its local partition into
//!    local left/right files while fusing the children's statistics —
//!    no communication, near-perfect balance by Lemma 2.
//!
//! **Small nodes** (delayed task parallelism) are LPT-assigned to single
//! processors, their data is moved with batched compute-dependent parallel
//! I/O, and each owner builds the subtree in memory with the direct method.

use pdc_cgm::{OpKind, Proc};
use pdc_clouds::derive::NodeStats;
use pdc_clouds::gini::total;
use pdc_clouds::{
    build_tree_with_stats, exact_interval_scan, AliveIndex, AliveInterval, Candidate, ClassCounts,
    CloudsParams, SplitMethod,
};
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_NUMERIC};
use pdc_dnc::{lpt_assign, Outcome, OocProblem, Task};
use pdc_pario::{DiskFarm, Rec};

use crate::comm::{HistMsg, HistPayload};
use crate::config::{BoundaryEval, PcloudsConfig};
use crate::state::SharedBuild;

/// Move a numeric attribute's statistics out of `stats` for the
/// contributing path of a combine, leaving a cheap placeholder — the
/// statistics are consumed by the collective, so cloning them would only
/// duplicate the allocation.
fn take_numeric(stats: &mut NodeStats, a: usize) -> pdc_clouds::AttrIntervalStats {
    std::mem::replace(
        &mut stats.numeric[a],
        pdc_clouds::AttrIntervalStats {
            attr: a,
            intervals: pdc_clouds::IntervalSet::from_boundaries(Vec::new()),
            counts: Vec::new(),
            ranges: Vec::new(),
        },
    )
}

/// Move a categorical attribute's count matrix out of `stats` (see
/// [`take_numeric`]).
fn take_categorical(stats: &mut NodeStats, a: usize) -> pdc_clouds::CountMatrix {
    std::mem::replace(
        &mut stats.categorical[a],
        pdc_clouds::CountMatrix {
            attr: a,
            counts: Vec::new(),
        },
    )
}

/// Task description: the node's global class distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeMeta {
    /// Global class counts of the node.
    pub counts: ClassCounts,
}

impl NodeMeta {
    /// Number of records in the node.
    pub fn n(&self) -> u64 {
        total(&self.counts)
    }
}

/// One processor's owned slice of an attribute's interval statistics
/// (the interval-based approach distributes every attribute's intervals
/// across all processors).
pub struct OwnedSlice {
    /// Numeric attribute index.
    pub attr: usize,
    /// First interval index of the slice.
    pub start: usize,
    /// Combined class counts per interval of the slice.
    pub counts: Vec<ClassCounts>,
    /// Combined (min, max) per interval of the slice.
    pub ranges: Vec<Option<(f64, f64)>>,
    /// Class counts of everything strictly before the slice.
    pub cum_before: ClassCounts,
}

/// The pCLOUDS divide-and-conquer problem.
pub struct PcloudsProblem<'a> {
    /// Per-processor local disks holding the node files.
    pub farm: &'a DiskFarm,
    /// Run configuration.
    pub config: &'a PcloudsConfig,
    /// Per-processor build state (tree replicas, samples, caches).
    pub build: &'a SharedBuild,
    /// Training-set size (drives the q schedule).
    pub n_root: u64,
}

impl PcloudsProblem<'_> {
    /// Name of the distributed data file of node `id`.
    pub fn node_file(id: u64) -> String {
        format!("node-{id}")
    }

    /// Name of the single-owner file of a small node `id`.
    pub fn owned_file(id: u64) -> String {
        format!("owned-{id}")
    }

    fn chunk(&self) -> usize {
        self.config.chunk_records(Record::ENCODED_BYTES)
    }

    fn params(&self) -> &CloudsParams {
        &self.config.clouds
    }

    /// One streaming pass accumulating this processor's node statistics.
    fn local_stats_pass(
        &self,
        proc: &mut Proc,
        id: u64,
        sample: &[Record],
        q: usize,
        chunk: usize,
    ) -> NodeStats {
        let span = proc.span("pclouds.attr_scan", &[("node", id as i64)]);
        let mut stats = NodeStats::from_sample(sample, q);
        let mut disk = self.farm.lock(proc.rank());
        let f = disk.open::<Record>(&Self::node_file(id));
        let local_bytes = disk.num_records(&f) * Record::ENCODED_BYTES;
        let mut reader = disk.reader(&f, chunk);
        while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
            proc.charge_ws(OpKind::RecordScan, chunk.len() as u64, local_bytes);
            for r in &chunk {
                stats.add_record(r);
            }
        }
        proc.span_end(span);
        stats
    }

    /// Phase 2a: replication method (attribute-based). Combines each
    /// attribute's statistics to its owner; owners evaluate boundary and
    /// categorical ginis. Returns this processor's best owned candidate and
    /// the attribute statistics it owns (for alive-interval determination).
    fn derive_boundary_candidates(
        &self,
        proc: &mut Proc,
        stats: &mut NodeStats,
        node_total: &ClassCounts,
    ) -> (Option<Candidate>, Vec<pdc_clouds::AttrIntervalStats>) {
        if self.config.comm.batched_stats {
            return self.derive_boundary_candidates_batched(proc, stats, node_total);
        }
        let p = proc.nprocs();
        let mut local_best: Option<Candidate> = None;
        let mut owned = Vec::new();
        for a in 0..NUM_NUMERIC {
            let owner = a % p;
            let combined = proc.reduce(owner, take_numeric(stats, a), |mut x, y| {
                x.merge(&y);
                x
            });
            if let Some(attr_stats) = combined {
                let nb = attr_stats.intervals.boundaries().len() as u64;
                let c = node_total.len() as u64;
                // Prefix sums over the boundary frequency vectors + one gini
                // evaluation per boundary — "completely local to the
                // processor".
                proc.charge(OpKind::HistUpdate, nb * c);
                proc.charge(OpKind::GiniEval, nb);
                if let Some(cand) = attr_stats.best_boundary(node_total) {
                    local_best = Candidate::better(local_best, cand);
                }
                owned.push(attr_stats);
            }
        }
        for a in 0..NUM_CATEGORICAL {
            let owner = (NUM_NUMERIC + a) % p;
            let combined = proc.reduce(owner, take_categorical(stats, a), |mut x, y| {
                x.merge(&y);
                x
            });
            if let Some(matrix) = combined {
                proc.charge(OpKind::GiniEval, matrix.counts.len() as u64);
                if let Some(cand) =
                    matrix.best_split(node_total, self.params().cat_exhaustive_limit)
                {
                    local_best = Candidate::better(local_best, cand);
                }
            }
        }
        (local_best, owned)
    }

    /// Batched variant of [`Self::derive_boundary_candidates`]
    /// ([`crate::config::CommConfig::batched_stats`]): every attribute's
    /// statistics travel in **one** reduce-scatter — destination `a % p`
    /// (numeric) / `(A_num + a) % p` (categorical) gets one block with all
    /// its attributes — instead of `A` separate combines. The collective's
    /// algorithm (fan-in vs. recursive halving) is picked from the cost
    /// model under [`pdc_cgm::CollectiveTuning`]; the size hint is derived
    /// from the histogram *shapes*, which every rank agrees on, never from
    /// a local (possibly sparse) encoding.
    fn derive_boundary_candidates_batched(
        &self,
        proc: &mut Proc,
        stats: &mut NodeStats,
        node_total: &ClassCounts,
    ) -> (Option<Candidate>, Vec<pdc_clouds::AttrIntervalStats>) {
        let p = proc.nprocs();
        let sparse = self.config.comm.sparse_histograms;
        let mut blocks: Vec<Vec<HistMsg>> = vec![Vec::new(); p];
        let mut hint = 0usize;
        for a in 0..NUM_NUMERIC {
            let msg = HistMsg::numeric(take_numeric(stats, a), sparse);
            hint += msg.dense_hint();
            blocks[a % p].push(msg);
        }
        for a in 0..NUM_CATEGORICAL {
            let msg = HistMsg::categorical(take_categorical(stats, a), sparse);
            hint += msg.dense_hint();
            blocks[(NUM_NUMERIC + a) % p].push(msg);
        }
        let mine = proc.reduce_scatter_blocks(blocks, hint, HistMsg::merged);
        let mut local_best: Option<Candidate> = None;
        let mut owned = Vec::new();
        for msg in mine {
            match msg.payload {
                HistPayload::Numeric(attr_stats) => {
                    let nb = attr_stats.intervals.boundaries().len() as u64;
                    let c = node_total.len() as u64;
                    proc.charge(OpKind::HistUpdate, nb * c);
                    proc.charge(OpKind::GiniEval, nb);
                    if let Some(cand) = attr_stats.best_boundary(node_total) {
                        local_best = Candidate::better(local_best, cand);
                    }
                    owned.push(attr_stats);
                }
                HistPayload::Categorical(matrix) => {
                    proc.charge(OpKind::GiniEval, matrix.counts.len() as u64);
                    if let Some(cand) =
                        matrix.best_split(node_total, self.params().cat_exhaustive_limit)
                    {
                        local_best = Candidate::better(local_best, cand);
                    }
                }
            }
        }
        (local_best, owned)
    }

    /// Share locally-held best candidates: one all-to-all broadcast of the
    /// per-processor winners, after which every rank deterministically
    /// keeps the canonically smallest (the paper's min-reduction on local
    /// minimum ginis, made canonical so ties never depend on ranks).
    fn elect_candidate(
        &self,
        proc: &mut Proc,
        local: Option<Candidate>,
    ) -> Option<Candidate> {
        let gathered = proc.all_gather(local);
        let mut best: Option<Candidate> = None;
        for cand in gathered.into_iter().flatten() {
            best = Candidate::better(best, cand);
        }
        best
    }

    /// Phase 2a, **interval-based approach** (§5.1.1's alternative): "the
    /// global frequency vector of each interval is assigned to only one
    /// processor" — every attribute's intervals are cut into `p` contiguous
    /// slices and slice `j` of *every* attribute goes to processor `j`, so
    /// gini evaluation never idles processors even when `p` exceeds the
    /// attribute count. One personalized all-to-all moves the slices; an
    /// exclusive prefix sum supplies each slice's cumulative class counts.
    fn derive_boundary_candidates_interval_based(
        &self,
        proc: &mut Proc,
        stats: &mut NodeStats,
        node_total: &ClassCounts,
    ) -> (Option<Candidate>, Vec<OwnedSlice>) {
        type SliceWire = (u64, u64, Vec<Vec<u64>>, Vec<Option<(f64, f64)>>);
        let p = proc.nprocs();
        let nclasses = node_total.len();
        // Slice boundaries per attribute: owner j gets [lo_j, hi_j).
        let slice_range = |q: usize, j: usize| -> (usize, usize) {
            (q * j / p, q * (j + 1) / p)
        };
        // Route local slice statistics to their owners.
        let mut parts: Vec<Vec<SliceWire>> = vec![Vec::new(); p];
        for attr_stats in &stats.numeric {
            let q = attr_stats.intervals.num_intervals();
            for (j, part) in parts.iter_mut().enumerate() {
                let (lo, hi) = slice_range(q, j);
                if lo < hi {
                    part.push((
                        attr_stats.attr as u64,
                        lo as u64,
                        attr_stats.counts[lo..hi].to_vec(),
                        attr_stats.ranges[lo..hi].to_vec(),
                    ));
                }
            }
        }
        let received = proc.all_to_all(parts);
        // Merge the p contributions per owned slice.
        let mut owned: Vec<OwnedSlice> = Vec::new();
        for contribution in received {
            for (attr, start, counts, ranges) in contribution {
                let (attr, start) = (attr as usize, start as usize);
                proc.charge(OpKind::HistUpdate, (counts.len() * nclasses) as u64);
                match owned.iter_mut().find(|s| s.attr == attr && s.start == start) {
                    Some(slice) => {
                        for (a, b) in slice.counts.iter_mut().zip(&counts) {
                            pdc_clouds::gini::add_assign(a, b);
                        }
                        for (a, b) in slice.ranges.iter_mut().zip(&ranges) {
                            *a = match (*a, *b) {
                                (None, r) | (r, None) => r,
                                (Some((alo, ahi)), Some((blo, bhi))) => {
                                    Some((alo.min(blo), ahi.max(bhi)))
                                }
                            };
                        }
                    }
                    None => owned.push(OwnedSlice {
                        attr,
                        start,
                        counts,
                        ranges,
                        cum_before: vec![0; nclasses],
                    }),
                }
            }
        }
        owned.sort_by_key(|s| (s.attr, s.start));
        // Exclusive prefix sum across processors gives each slice the class
        // counts of everything strictly before it, per attribute.
        let my_totals: Vec<Vec<u64>> = (0..NUM_NUMERIC)
            .map(|a| {
                let mut t = vec![0u64; nclasses];
                for s in owned.iter().filter(|s| s.attr == a) {
                    for c in &s.counts {
                        pdc_clouds::gini::add_assign(&mut t, c);
                    }
                }
                t
            })
            .collect();
        let before: Vec<Vec<u64>> = proc.exscan(
            my_totals,
            vec![vec![0u64; nclasses]; NUM_NUMERIC],
            |a, b| {
                a.iter()
                    .zip(&b)
                    .map(|(x, y)| x.iter().zip(y).map(|(u, v)| u + v).collect())
                    .collect()
            },
        );
        for s in owned.iter_mut() {
            s.cum_before = before[s.attr].clone();
        }
        // Boundary candidates within the owned slices.
        let n: u64 = node_total.iter().sum();
        let mut local_best: Option<Candidate> = None;
        for s in &owned {
            let boundaries = stats.numeric[s.attr].intervals.boundaries();
            let mut left = s.cum_before.clone();
            proc.charge(OpKind::GiniEval, s.counts.len() as u64);
            for (k, interior) in s.counts.iter().enumerate() {
                pdc_clouds::gini::add_assign(&mut left, interior);
                let idx = s.start + k;
                if idx >= boundaries.len() {
                    break; // the final interval has no upper boundary
                }
                let left_n: u64 = left.iter().sum();
                if left_n == 0 || left_n == n {
                    continue;
                }
                let right = pdc_clouds::gini::sub(node_total, &left);
                local_best = Candidate::better(
                    local_best,
                    Candidate {
                        gini: pdc_clouds::split_gini(&left, &right),
                        splitter: pdc_clouds::Splitter::Numeric {
                            attr: s.attr,
                            threshold: boundaries[idx],
                        },
                        left_counts: left.clone(),
                    },
                );
            }
        }
        // Categorical attributes keep the attribute-based combine (their
        // count matrices are tiny). The matrices are moved, not cloned:
        // nothing reads `stats.categorical` after this point (the alive
        // determination only needs the numeric interval sets).
        for a in 0..NUM_CATEGORICAL {
            let owner = (NUM_NUMERIC + a) % p;
            let combined = proc.reduce(owner, take_categorical(stats, a), |mut x, y| {
                x.merge(&y);
                x
            });
            if let Some(matrix) = combined {
                proc.charge(OpKind::GiniEval, matrix.counts.len() as u64);
                if let Some(cand) =
                    matrix.best_split(node_total, self.params().cat_exhaustive_limit)
                {
                    local_best = Candidate::better(local_best, cand);
                }
            }
        }
        (local_best, owned)
    }

    /// Alive-interval determination over owned slices (interval-based
    /// approach): the slice carries its own cumulative base.
    fn local_alive_from_slices(
        &self,
        proc: &mut Proc,
        stats: &NodeStats,
        owned: &[OwnedSlice],
        node_total: &ClassCounts,
        gini_min: f64,
    ) -> Vec<AliveInterval> {
        let mut alive = Vec::new();
        for s in owned {
            proc.charge(OpKind::GiniEval, s.counts.len() as u64);
            let intervals = &stats.numeric[s.attr].intervals;
            let mut cum = s.cum_before.clone();
            for (k, interior) in s.counts.iter().enumerate() {
                let idx = s.start + k;
                let count: u64 = interior.iter().sum();
                let multi = matches!(s.ranges[k], Some((lo, hi)) if lo < hi);
                if count >= 2 && multi {
                    let est = pdc_clouds::gini::interval_gini_lower_bound(
                        &cum, interior, node_total,
                    );
                    if est < gini_min {
                        alive.push(AliveInterval {
                            attr: s.attr,
                            index: idx,
                            lower: intervals.lower_edge(idx),
                            upper: intervals.upper_edge(idx),
                            cum_before: cum.clone(),
                            est,
                            count,
                        });
                    }
                }
                pdc_clouds::gini::add_assign(&mut cum, interior);
            }
        }
        alive
    }

    /// Phase 2b: determine alive intervals on the owners and replicate the
    /// statuses everywhere (all-to-all broadcast of the interval statuses).
    fn determine_alive(
        &self,
        proc: &mut Proc,
        owned: &[pdc_clouds::AttrIntervalStats],
        node_total: &ClassCounts,
        gini_min: f64,
    ) -> Vec<AliveInterval> {
        let mut local_alive = Vec::new();
        for attr_stats in owned {
            proc.charge(
                OpKind::GiniEval,
                attr_stats.intervals.num_intervals() as u64,
            );
            local_alive.extend(attr_stats.alive_intervals(node_total, gini_min));
        }
        self.share_alive(proc, local_alive)
    }

    /// Replicate alive-interval statuses on every processor, in a
    /// deterministic global order.
    fn share_alive(
        &self,
        proc: &mut Proc,
        local_alive: Vec<AliveInterval>,
    ) -> Vec<AliveInterval> {
        let mut all: Vec<AliveInterval> =
            proc.all_gather(local_alive).into_iter().flatten().collect();
        // Deterministic global order (owners may interleave attributes).
        all.sort_by_key(|a| (a.attr, a.index));
        all
    }

    /// Phase 2c: single-assignment evaluation of the alive intervals. Each
    /// interval is LPT-assigned to one processor; a second streaming pass
    /// routes each alive point to its interval's owner (one personalized
    /// all-to-all per chunk round); owners sort and scan exactly.
    fn evaluate_alive(
        &self,
        proc: &mut Proc,
        id: u64,
        alive: &[AliveInterval],
        node_total: &ClassCounts,
    ) -> Option<Candidate> {
        let p = proc.nprocs();
        let costs: Vec<f64> = alive
            .iter()
            .map(|a| {
                let n = a.count.max(2) as f64;
                n * n.log2()
            })
            .collect();
        let owners = lpt_assign(&costs, p);

        // Streaming pass: bucket (interval index, value, class) per owner.
        let rounds = {
            let disk = self.farm.lock(proc.rank());
            let f = disk.open::<Record>(&Self::node_file(id));
            let n = disk.num_records(&f);
            proc.allreduce(n.div_ceil(self.chunk()) as u64, u64::max)
        };
        // Host-side routing only: the SplitTest charge below models the
        // paper's per-interval tests, whatever the index saves.
        let index = AliveIndex::new(alive);
        let mut mine: Vec<Vec<(f64, u8)>> = vec![Vec::new(); alive.len()];
        let mut cursor = 0usize;
        for _ in 0..rounds {
            let chunk: Vec<Record> = {
                let mut disk = self.farm.lock(proc.rank());
                let f = disk.open::<Record>(&Self::node_file(id));
                let n = disk.num_records(&f);
                let take = self.chunk().min(n.saturating_sub(cursor));
                let recs = if take > 0 {
                    disk.read_range(proc, &f, cursor, take)
                } else {
                    Vec::new()
                };
                cursor += take;
                recs
            };
            proc.charge(
                OpKind::SplitTest,
                (chunk.len() * alive.len().max(1)) as u64,
            );
            let mut buckets: Vec<Vec<(u64, f64, u8)>> = vec![Vec::new(); p];
            for r in &chunk {
                index.route(r, |k, v| buckets[owners[k]].push((k as u64, v, r.class)));
            }
            let received = proc.all_to_all(buckets);
            for batch in received {
                for (k, v, class) in batch {
                    mine[k as usize].push((v, class));
                }
            }
        }

        // Exact scans of the intervals this processor owns.
        let mut local_best: Option<Candidate> = None;
        let mut metrics_points = 0u64;
        let mut metrics_intervals = 0usize;
        for (k, (interval, points)) in alive.iter().zip(&mut mine).enumerate() {
            if owners[k] != proc.rank() {
                continue;
            }
            metrics_points += points.len() as u64;
            metrics_intervals += 1;
            let n = points.len().max(2) as u64;
            let ws = points.len() * 16;
            proc.charge_ws(OpKind::Compare, n * (n as f64).log2().ceil() as u64, ws);
            proc.charge_ws(OpKind::GiniEval, n, ws);
            if let Some(c) = exact_interval_scan(points, interval, node_total) {
                local_best = Candidate::better(local_best, c);
            }
        }
        {
            let mut st = self.build.rank(proc.rank());
            st.metrics.alive_intervals_evaluated += metrics_intervals;
            st.metrics.alive_points_scanned += metrics_points;
        }
        self.elect_candidate(proc, local_best)
    }

    /// Phase 3: partition data and sample points; fuse the children's
    /// statistics into the same pass. Pure local I/O — "this step does not
    /// require any communication, and gives almost perfect load balance".
    #[allow(clippy::too_many_arguments)]
    fn partition(
        &self,
        proc: &mut Proc,
        task: &Task<NodeMeta>,
        cand: &Candidate,
        left_counts: &ClassCounts,
        right_counts: &ClassCounts,
        chunk: usize,
    ) {
        let id = task.id;
        let (lid, rid) = (2 * id, 2 * id + 1);
        let n_left = total(left_counts);
        let n_right = total(right_counts);
        let q_left = self.params().q_for_node(n_left, self.n_root);
        let q_right = self.params().q_for_node(n_right, self.n_root);

        // Split the sample replica first: the children's interval
        // boundaries come from their sample slices, which lets the data
        // pass below fuse the children's statistics.
        let (sample_left, sample_right) = {
            let mut st = self.build.rank(proc.rank());
            let sample = st.samples.remove(&id).unwrap_or_default();
            proc.charge(OpKind::SplitTest, sample.len() as u64);
            let (mut ls, mut rs) = (Vec::new(), Vec::new());
            for s in sample {
                if cand.splitter.goes_left(&s) {
                    ls.push(s);
                } else {
                    rs.push(s);
                }
            }
            st.samples.insert(lid, ls.clone());
            st.samples.insert(rid, rs.clone());
            (ls, rs)
        };

        // Fused child statistics only pay off for children that will be
        // processed as large nodes; small children go to the direct method.
        let fuse_left = !self.is_small_n(n_left);
        let fuse_right = !self.is_small_n(n_right);
        let mut stats_left = fuse_left.then(|| NodeStats::from_sample(&sample_left, q_left));
        let mut stats_right =
            fuse_right.then(|| NodeStats::from_sample(&sample_right, q_right));

        {
            let mut disk = self.farm.lock(proc.rank());
            let src = disk.open::<Record>(&Self::node_file(id));
            let left = disk.create::<Record>(&Self::node_file(lid));
            let right = disk.create::<Record>(&Self::node_file(rid));
            let local_bytes = disk.num_records(&src) * Record::ENCODED_BYTES;
            let mut reader = disk.reader(&src, chunk);
            let (mut lbuf, mut rbuf) = (Vec::new(), Vec::new());
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                proc.charge_ws(OpKind::SplitTest, chunk.len() as u64, local_bytes);
                for r in chunk {
                    if cand.splitter.goes_left(&r) {
                        if let Some(stats) = stats_left.as_mut() {
                            stats.add_record(&r);
                        }
                        lbuf.push(r);
                    } else {
                        if let Some(stats) = stats_right.as_mut() {
                            stats.add_record(&r);
                        }
                        rbuf.push(r);
                    }
                }
                // The fused statistics update is the cost the separate pass
                // would have paid.
                let fused = lbuf.len() as u64 * u64::from(fuse_left)
                    + rbuf.len() as u64 * u64::from(fuse_right);
                proc.charge_ws(OpKind::RecordScan, fused, local_bytes);
                disk.append(proc, &left, &lbuf);
                disk.append(proc, &right, &rbuf);
                lbuf.clear();
                rbuf.clear();
            }
            disk.delete(&Self::node_file(id));
        }

        // Update the skeleton replica and the statistics cache.
        let mut st = self.build.rank(proc.rank());
        let node = *st.node_of.get(&id).expect("skeleton node for split");
        let tree = st.tree.as_mut().expect("skeleton");
        let (l, r) = tree.split_leaf(
            node,
            cand.splitter.clone(),
            left_counts.clone(),
            right_counts.clone(),
        );
        st.node_of.insert(lid, l);
        st.node_of.insert(rid, r);
        if let Some(stats) = stats_left {
            st.stats_cache.insert(lid, stats);
        }
        if let Some(stats) = stats_right {
            st.stats_cache.insert(rid, stats);
        }
    }

    fn is_small_n(&self, n: u64) -> bool {
        self.params().q_for_node(n, self.n_root) <= self.config.switch_threshold_intervals
    }

    /// Batched election: every processor contributes its `(task, candidate)`
    /// pairs to one all-gather; everyone deterministically keeps the lowest
    /// gini per task (ties to the earliest contributor in rank order).
    fn elect_batch(
        &self,
        proc: &mut Proc,
        local: &[(u64, Candidate)],
    ) -> std::collections::HashMap<u64, Candidate> {
        let gathered = proc.all_gather(local.to_vec());
        let mut best: std::collections::HashMap<u64, Candidate> = std::collections::HashMap::new();
        for list in gathered {
            for (t, c) in list {
                let merged = Candidate::better(best.remove(&t), c).unwrap();
                best.insert(t, merged);
            }
        }
        best
    }

    /// Phase 3: partition on the elected candidate, or conclude the node is
    /// a leaf. Shared by the per-node and the batched (concatenated) paths.
    fn conclude(
        &self,
        proc: &mut Proc,
        task: &Task<NodeMeta>,
        best: Option<Candidate>,
        chunk: usize,
    ) -> Outcome<NodeMeta> {
        let id = task.id;
        let node_total = &task.meta.counts;
        let phase_start = proc.clock();
        let Some(cand) = best else {
            let mut disk = self.farm.lock(proc.rank());
            disk.delete(&Self::node_file(id));
            return Outcome::Solved;
        };
        let left_counts = cand.left_counts.clone();
        let right_counts = pdc_clouds::gini::sub(node_total, &left_counts);
        if total(&left_counts) == 0 || total(&right_counts) == 0 {
            let mut disk = self.farm.lock(proc.rank());
            disk.delete(&Self::node_file(id));
            return Outcome::Solved;
        }
        self.partition(proc, task, &cand, &left_counts, &right_counts, chunk);
        {
            let mut st = self.build.rank(proc.rank());
            st.metrics.time_partition += proc.clock() - phase_start;
        }
        Outcome::Split(
            NodeMeta {
                counts: left_counts,
            },
            NodeMeta {
                counts: right_counts,
            },
        )
    }
}

impl OocProblem for PcloudsProblem<'_> {
    type Meta = NodeMeta;

    fn cost(&self, meta: &NodeMeta) -> f64 {
        let n = meta.n().max(2) as f64;
        n * n.log2()
    }

    fn is_small(&self, meta: &NodeMeta) -> bool {
        self.is_small_n(meta.n())
    }

    fn task_bytes(&self, meta: &NodeMeta) -> u64 {
        meta.n() * Record::ENCODED_BYTES as u64
    }

    fn process_large(&self, proc: &mut Proc, task: &Task<NodeMeta>) -> Outcome<NodeMeta> {
        let id = task.id;
        let node_total = task.meta.counts.clone();
        let n = task.meta.n();
        {
            let mut st = self.build.rank(proc.rank());
            st.metrics.large_nodes += 1;
        }

        // Stopping criteria are evaluated on global counts — identical on
        // every rank, no communication needed.
        if self.params().should_stop(&node_total, task.depth) {
            let mut disk = self.farm.lock(proc.rank());
            disk.delete(&Self::node_file(id));
            return Outcome::Solved;
        }

        let q = self.params().q_for_node(n, self.n_root);

        // Phase 1: local statistics (fused from the parent when possible).
        let phase_start = proc.clock();
        let stats_span =
            proc.span("pclouds.stats", &[("node", id as i64), ("records", n as i64)]);
        let cached = {
            let mut st = self.build.rank(proc.rank());
            st.stats_cache.remove(&id)
        };
        let mut local_stats = match cached {
            Some(stats) => stats,
            None => {
                let sample = {
                    let st = self.build.rank(proc.rank());
                    st.samples.get(&id).cloned().unwrap_or_default()
                };
                self.local_stats_pass(proc, id, &sample, q, self.chunk())
            }
        };
        proc.span_end(stats_span);
        {
            let mut st = self.build.rank(proc.rank());
            st.metrics.time_stats += proc.clock() - phase_start;
        }
        let phase_start = proc.clock();
        let derive_span = proc.span("pclouds.derive", &[("node", id as i64)]);

        // Phase 2: derive the splitting point (replication method, with
        // either the attribute-based or the interval-based approach).
        // The SS method stops at the boundary candidates; SSE (and, as a
        // safety net, any node where no boundary split exists) goes on to
        // determine and exactly evaluate the alive intervals.
        let (ss_candidate, alive) = match self.config.boundary_eval {
            BoundaryEval::AttributeBased => {
                let (local_best, owned) =
                    self.derive_boundary_candidates(proc, &mut local_stats, &node_total);
                let ss_candidate = self.elect_candidate(proc, local_best);
                let gini_min = ss_candidate.as_ref().map_or(f64::INFINITY, |c| c.gini);
                let alive =
                    if self.params().method == SplitMethod::SSE || ss_candidate.is_none() {
                        self.determine_alive(proc, &owned, &node_total, gini_min)
                    } else {
                        Vec::new()
                    };
                (ss_candidate, alive)
            }
            BoundaryEval::IntervalBased => {
                let (local_best, owned) = self.derive_boundary_candidates_interval_based(
                    proc,
                    &mut local_stats,
                    &node_total,
                );
                let ss_candidate = self.elect_candidate(proc, local_best);
                let gini_min = ss_candidate.as_ref().map_or(f64::INFINITY, |c| c.gini);
                let alive =
                    if self.params().method == SplitMethod::SSE || ss_candidate.is_none() {
                        let local = self.local_alive_from_slices(
                            proc,
                            &local_stats,
                            &owned,
                            &node_total,
                            gini_min,
                        );
                        self.share_alive(proc, local)
                    } else {
                        Vec::new()
                    };
                (ss_candidate, alive)
            }
        };
        {
            let alive_records: u64 = alive.iter().map(|a| a.count).sum();
            let ratio = alive_records as f64 / n.max(1) as f64;
            let mut st = self.build.rank(proc.rank());
            st.metrics.survival_ratio_sum += ratio;
            if id == 1 {
                st.metrics.root_survival_ratio = ratio;
            }
        }
        let best = if alive.is_empty() {
            ss_candidate
        } else {
            let exact = self.evaluate_alive(proc, id, &alive, &node_total);
            match (ss_candidate, exact) {
                (a, None) => a,
                (None, b) => b,
                (Some(a), Some(b)) => Candidate::better(Some(a), b),
            }
        };

        proc.span_end(derive_span);
        {
            let mut st = self.build.rank(proc.rank());
            st.metrics.time_derive += proc.clock() - phase_start;
        }
        proc.in_span("pclouds.partition", &[("node", id as i64)], |proc| {
            self.conclude(proc, task, best, self.chunk())
        })
    }

    /// Batched compute-dependent parallel I/O: all small nodes' data moves
    /// in one chunked sequence of personalized all-to-alls ("the assigning
    /// and processing of small nodes are delayed ... to reduce the number
    /// of message startups").
    fn redistribute_small(&self, proc: &mut Proc, assignments: &[(Task<NodeMeta>, usize)]) {
        let phase_start = proc.clock();
        let span = proc.span(
            "pclouds.small_redistribute",
            &[("tasks", assignments.len() as i64)],
        );
        let p = proc.nprocs();
        let chunk = self.chunk();
        // Create the destination files on their owners.
        {
            let mut disk = self.farm.lock(proc.rank());
            for (task, owner) in assignments {
                if *owner == proc.rank() {
                    disk.create::<Record>(&Self::owned_file(task.id));
                }
                // Sample replicas of small tasks are no longer needed.
                let mut st = self.build.rank(proc.rank());
                st.samples.remove(&task.id);
            }
        }
        // Total local records across all small files fixes the round count.
        let local_total: usize = {
            let disk = self.farm.lock(proc.rank());
            assignments
                .iter()
                .map(|(t, _)| {
                    let f = disk.open::<Record>(&Self::node_file(t.id));
                    disk.num_records(&f)
                })
                .sum()
        };
        let rounds = proc.allreduce(local_total.div_ceil(chunk) as u64, u64::max) as usize;
        let mut task_idx = 0usize;
        let mut offset = 0usize;
        for _ in 0..rounds {
            // Fill up to `chunk` records from the concatenated small files.
            let mut buckets: Vec<Vec<(u64, Record)>> = vec![Vec::new(); p];
            let mut budget = chunk;
            {
                let mut disk = self.farm.lock(proc.rank());
                while budget > 0 && task_idx < assignments.len() {
                    let (task, owner) = &assignments[task_idx];
                    let f = disk.open::<Record>(&Self::node_file(task.id));
                    let remaining = disk.num_records(&f) - offset;
                    if remaining == 0 {
                        task_idx += 1;
                        offset = 0;
                        continue;
                    }
                    let take = budget.min(remaining);
                    let recs = disk.read_range(proc, &f, offset, take);
                    offset += take;
                    budget -= take;
                    buckets[*owner].extend(recs.into_iter().map(|r| (task.id, r)));
                }
            }
            let received = proc.all_to_all(buckets);
            let mut disk = self.farm.lock(proc.rank());
            // Group arrivals by task to write few, large requests.
            let mut by_task: std::collections::HashMap<u64, Vec<Record>> =
                std::collections::HashMap::new();
            for batch in received {
                for (tid, rec) in batch {
                    by_task.entry(tid).or_default().push(rec);
                }
            }
            let mut tids: Vec<u64> = by_task.keys().copied().collect();
            tids.sort_unstable();
            for tid in tids {
                let f = disk.open::<Record>(&Self::owned_file(tid));
                disk.append(proc, &f, &by_task[&tid]);
            }
        }
        // Drop the source files.
        {
            let mut disk = self.farm.lock(proc.rank());
            for (task, _) in assignments {
                disk.delete(&Self::node_file(task.id));
            }
        }
        proc.span_end(span);
        let mut st = self.build.rank(proc.rank());
        st.metrics.time_small_redistribute += proc.clock() - phase_start;
    }

    fn redistribute_one(&self, proc: &mut Proc, task: &Task<NodeMeta>, owner: usize) {
        let pair = [(task.clone(), owner)];
        self.redistribute_small(proc, &pair);
    }

    fn solve_small_local(&self, proc: &mut Proc, task: &Task<NodeMeta>) {
        let phase_start = proc.clock();
        let span = proc.span(
            "pclouds.small_solve",
            &[("task", task.id as i64), ("records", task.meta.n() as i64)],
        );
        let records = {
            let mut disk = self.farm.lock(proc.rank());
            let f = disk.open::<Record>(&Self::owned_file(task.id));
            let recs = disk.read_all(proc, &f);
            disk.delete(&Self::owned_file(task.id));
            recs
        };
        // "In the direct method we sort the points along every numeric
        // attribute and compute the gini index at each point. Further,
        // these small nodes are processed in-memory."
        let params = CloudsParams {
            method: SplitMethod::Direct,
            max_depth: self.params().max_depth.saturating_sub(task.depth),
            ..self.params().clone()
        };
        let (subtree, stats) = build_tree_with_stats(&records, &params);
        let n = records.len().max(2) as u64;
        let ws = records.len() * Record::ENCODED_BYTES;
        let attrs = (NUM_NUMERIC + NUM_CATEGORICAL) as u64;
        proc.charge_ws(OpKind::RecordScan, stats.record_visits, ws);
        proc.charge_ws(
            OpKind::Compare,
            stats.record_visits * attrs * (n as f64).log2().ceil() as u64,
            ws,
        );
        proc.span_end(span);
        let mut st = self.build.rank(proc.rank());
        st.metrics.small_solved += 1;
        st.metrics.small_records += records.len() as u64;
        st.metrics.time_small_solve += proc.clock() - phase_start;
        st.local_subtrees.push((task.id, subtree));
    }

    /// Task-queue lookahead from the framework: issue asynchronous prefetch
    /// reads for the next task's data file so the transfer rides under the
    /// current task's compute. Small tasks read their single-owner file;
    /// everything else reads the distributed node file. Free (and silent)
    /// when the disk farm has no prefetching engine.
    fn prefetch_task(&self, proc: &mut Proc, task: &Task<NodeMeta>) {
        let mut disk = self.farm.lock(proc.rank());
        let owned = Self::owned_file(task.id);
        if disk.exists(&owned) {
            disk.prefetch_file_by_name(proc, &owned);
        } else {
            disk.prefetch_file_by_name(proc, &Self::node_file(task.id));
        }
    }

    /// End of the run: flush dirty write-back pages and drain the I/O
    /// device timeline so the tree build's accounting closes exactly.
    fn finish(&self, proc: &mut Proc) {
        let mut disk = self.farm.lock(proc.rank());
        disk.sync_engine(proc);
    }

    /// **Concatenated parallelism** (Section 3.3): process a whole tree
    /// level together, spooling the level's communication into batched
    /// collectives (one attribute-statistics combine for *all* nodes, one
    /// candidate election, one alive-interval exchange) — at the price the
    /// paper calls out: "the available memory has to be shared by the many
    /// tasks that are solved together", so every streaming pass runs with
    /// `memory_limit / level_size`.
    fn process_level(
        &self,
        proc: &mut Proc,
        tasks: &[Task<NodeMeta>],
    ) -> Vec<Outcome<NodeMeta>> {
        use std::collections::HashMap;
        let level = tasks.len();
        if level <= 1 {
            return tasks.iter().map(|t| self.process_large(proc, t)).collect();
        }
        let p = proc.nprocs();
        let chunk = (self.chunk() / level).max(1);
        {
            let mut st = self.build.rank(proc.rank());
            st.metrics.large_nodes += level;
        }

        // Tasks that stop become leaves immediately (global counts, no
        // communication).
        let active: Vec<usize> = (0..level)
            .filter(|&i| !self.params().should_stop(&tasks[i].meta.counts, tasks[i].depth))
            .collect();
        {
            let mut disk = self.farm.lock(proc.rank());
            for (i, task) in tasks.iter().enumerate() {
                if !active.contains(&i) {
                    disk.delete(&Self::node_file(task.id));
                }
            }
        }
        if active.is_empty() {
            return vec![Outcome::Solved; level];
        }

        // --- Phase 1: per-task local statistics under the shared budget.
        let stats_span = proc.span("pclouds.stats", &[("tasks", active.len() as i64)]);
        let mut stats_of: HashMap<usize, NodeStats> = HashMap::new();
        for &i in &active {
            let id = tasks[i].id;
            let q = self.params().q_for_node(tasks[i].meta.n(), self.n_root);
            let cached = {
                let mut st = self.build.rank(proc.rank());
                st.stats_cache.remove(&id)
            };
            let stats = match cached {
                Some(s) => s,
                None => {
                    let sample = {
                        let st = self.build.rank(proc.rank());
                        st.samples.get(&id).cloned().unwrap_or_default()
                    };
                    self.local_stats_pass(proc, id, &sample, q, chunk)
                }
            };
            stats_of.insert(i, stats);
        }
        proc.span_end(stats_span);

        // --- Phase 2a: ONE combine per attribute for the whole level —
        // or, with batched stats on, ONE reduce-scatter for the whole
        // level: blocks hold (attribute × task) entries in a deterministic
        // attribute-major order, so every owner recovers exactly the
        // statistics the per-attribute combines would have delivered.
        let derive_span = proc.span("pclouds.derive", &[("tasks", active.len() as i64)]);
        let mut my_candidates: Vec<(u64, Candidate)> = Vec::new();
        let mut owned_stats: Vec<(usize, pdc_clouds::AttrIntervalStats)> = Vec::new();
        if self.config.comm.batched_stats {
            let sparse = self.config.comm.sparse_histograms;
            let mut blocks: Vec<Vec<HistMsg>> = vec![Vec::new(); p];
            let mut hint = 0usize;
            for a in 0..NUM_NUMERIC {
                for &i in &active {
                    let s = stats_of.get_mut(&i).expect("active task has stats");
                    let msg = HistMsg::numeric(take_numeric(s, a), sparse);
                    hint += msg.dense_hint();
                    blocks[a % p].push(msg);
                }
            }
            for a in 0..NUM_CATEGORICAL {
                for &i in &active {
                    let s = stats_of.get_mut(&i).expect("active task has stats");
                    let msg = HistMsg::categorical(take_categorical(s, a), sparse);
                    hint += msg.dense_hint();
                    blocks[(NUM_NUMERIC + a) % p].push(msg);
                }
            }
            let mine = proc.reduce_scatter_blocks(blocks, hint, HistMsg::merged);
            // This rank's block: its owned attributes in ascending global
            // order, `active.len()` consecutive entries per attribute, in
            // `active` order — mirror the assembly loops above.
            for (k, msg) in mine.into_iter().enumerate() {
                let i = active[k % active.len()];
                match msg.payload {
                    HistPayload::Numeric(attr_stats) => {
                        let node_total = &tasks[i].meta.counts;
                        let nb = attr_stats.intervals.boundaries().len() as u64;
                        proc.charge(OpKind::HistUpdate, nb * node_total.len() as u64);
                        proc.charge(OpKind::GiniEval, nb);
                        if let Some(c) = attr_stats.best_boundary(node_total) {
                            my_candidates.push((i as u64, c));
                        }
                        owned_stats.push((i, attr_stats));
                    }
                    HistPayload::Categorical(matrix) => {
                        proc.charge(OpKind::GiniEval, matrix.counts.len() as u64);
                        if let Some(c) = matrix
                            .best_split(&tasks[i].meta.counts, self.params().cat_exhaustive_limit)
                        {
                            my_candidates.push((i as u64, c));
                        }
                    }
                }
            }
        } else {
            for a in 0..NUM_NUMERIC {
                let owner = a % p;
                let batch: Vec<pdc_clouds::AttrIntervalStats> = active
                    .iter()
                    .map(|&i| {
                        take_numeric(stats_of.get_mut(&i).expect("active task has stats"), a)
                    })
                    .collect();
                let combined = proc.reduce(owner, batch, |mut xs, ys| {
                    for (x, y) in xs.iter_mut().zip(&ys) {
                        x.merge(y);
                    }
                    xs
                });
                if let Some(combined) = combined {
                    for (k, attr_stats) in combined.into_iter().enumerate() {
                        let i = active[k];
                        let node_total = &tasks[i].meta.counts;
                        let nb = attr_stats.intervals.boundaries().len() as u64;
                        proc.charge(OpKind::HistUpdate, nb * node_total.len() as u64);
                        proc.charge(OpKind::GiniEval, nb);
                        if let Some(c) = attr_stats.best_boundary(node_total) {
                            my_candidates.push((i as u64, c));
                        }
                        owned_stats.push((i, attr_stats));
                    }
                }
            }
            for a in 0..NUM_CATEGORICAL {
                let owner = (NUM_NUMERIC + a) % p;
                let batch: Vec<pdc_clouds::CountMatrix> = active
                    .iter()
                    .map(|&i| {
                        take_categorical(stats_of.get_mut(&i).expect("active task has stats"), a)
                    })
                    .collect();
                let combined = proc.reduce(owner, batch, |mut xs, ys| {
                    for (x, y) in xs.iter_mut().zip(&ys) {
                        x.merge(y);
                    }
                    xs
                });
                if let Some(combined) = combined {
                    for (k, matrix) in combined.into_iter().enumerate() {
                        let i = active[k];
                        proc.charge(OpKind::GiniEval, matrix.counts.len() as u64);
                        if let Some(c) = matrix
                            .best_split(&tasks[i].meta.counts, self.params().cat_exhaustive_limit)
                        {
                            my_candidates.push((i as u64, c));
                        }
                    }
                }
            }
        }
        // ONE election for the whole level.
        let ss_best = self.elect_batch(proc, &my_candidates);

        // --- Phase 2b: alive determination, exchanged in ONE all-gather.
        let mut local_alive: Vec<(u64, AliveInterval)> = Vec::new();
        if self.params().method == SplitMethod::SSE {
            for (i, attr_stats) in &owned_stats {
                let gini_min = ss_best.get(&(*i as u64)).map_or(f64::INFINITY, |c| c.gini);
                proc.charge(OpKind::GiniEval, attr_stats.intervals.num_intervals() as u64);
                for alive in attr_stats.alive_intervals(&tasks[*i].meta.counts, gini_min) {
                    local_alive.push((*i as u64, alive));
                }
            }
        }
        let mut all_alive: Vec<(u64, AliveInterval)> = proc
            .all_gather(local_alive)
            .into_iter()
            .flatten()
            .collect();
        all_alive.sort_by_key(|a| (a.0, a.1.attr, a.1.index));
        let (alive_task, all_alive): (Vec<u64>, Vec<AliveInterval>) = all_alive.into_iter().unzip();

        // --- Phase 2c: single-assignment evaluation, batched across the
        // level: one chunked all-to-all stream covering every task's file.
        let exact_best = if all_alive.is_empty() {
            HashMap::new()
        } else {
            let costs: Vec<f64> = all_alive
                .iter()
                .map(|a| {
                    let n = a.count.max(2) as f64;
                    n * n.log2()
                })
                .collect();
            let owners = lpt_assign(&costs, p);
            let rounds = {
                let disk = self.farm.lock(proc.rank());
                let total_chunks: usize = active
                    .iter()
                    .map(|&i| {
                        let f = disk.open::<Record>(&Self::node_file(tasks[i].id));
                        disk.num_records(&f).div_ceil(chunk)
                    })
                    .sum();
                proc.allreduce(total_chunks as u64, u64::max) as usize
            };
            // Per-task routing index over the task's (contiguous) share of
            // `all_alive`, with that share's offset.
            let routes: Vec<(usize, AliveIndex)> = (0..level as u64)
                .map(|t| {
                    let start = alive_task.partition_point(|&x| x < t);
                    let end = alive_task.partition_point(|&x| x <= t);
                    (start, AliveIndex::new(&all_alive[start..end]))
                })
                .collect();
            let mut mine: Vec<Vec<(f64, u8)>> = vec![Vec::new(); all_alive.len()];
            let mut task_pos = 0usize;
            let mut cursor = 0usize;
            for _ in 0..rounds {
                // Fill up to `chunk` records from the level's files.
                let mut records: Vec<(usize, Record)> = Vec::new();
                {
                    let mut disk = self.farm.lock(proc.rank());
                    let mut budget = chunk;
                    while budget > 0 && task_pos < active.len() {
                        let i = active[task_pos];
                        let f = disk.open::<Record>(&Self::node_file(tasks[i].id));
                        let remaining = disk.num_records(&f) - cursor;
                        if remaining == 0 {
                            task_pos += 1;
                            cursor = 0;
                            continue;
                        }
                        let take = budget.min(remaining);
                        for r in disk.read_range(proc, &f, cursor, take) {
                            records.push((i, r));
                        }
                        cursor += take;
                        budget -= take;
                    }
                }
                let mut buckets: Vec<Vec<(u64, f64, u8)>> = vec![Vec::new(); p];
                proc.charge(
                    OpKind::SplitTest,
                    (records.len() * all_alive.len().max(1)) as u64,
                );
                for (i, r) in &records {
                    let (base, index) = &routes[*i];
                    index.route(r, |k, v| {
                        let k = base + k;
                        buckets[owners[k]].push((k as u64, v, r.class));
                    });
                }
                let received = proc.all_to_all(buckets);
                for batch in received {
                    for (k, v, class) in batch {
                        mine[k as usize].push((v, class));
                    }
                }
            }
            // Exact scans of the intervals this processor owns.
            let mut local_exact: Vec<(u64, Candidate)> = Vec::new();
            for (k, ((&t, interval), points)) in
                alive_task.iter().zip(&all_alive).zip(&mut mine).enumerate()
            {
                if owners[k] != proc.rank() {
                    continue;
                }
                let n = points.len().max(2) as u64;
                let ws = points.len() * 16;
                proc.charge_ws(OpKind::Compare, n * (n as f64).log2().ceil() as u64, ws);
                proc.charge_ws(OpKind::GiniEval, n, ws);
                if let Some(c) =
                    exact_interval_scan(points, interval, &tasks[t as usize].meta.counts)
                {
                    local_exact.push((t, c));
                }
            }
            self.elect_batch(proc, &local_exact)
        };
        proc.span_end(derive_span);

        // --- Phase 3: conclude every task (partition passes are local).
        let partition_span =
            proc.span("pclouds.partition", &[("tasks", active.len() as i64)]);
        let outcomes = (0..level)
            .map(|i| {
                if !active.contains(&i) {
                    return Outcome::Solved;
                }
                let ss = ss_best.get(&(i as u64)).cloned();
                let exact = exact_best.get(&(i as u64)).cloned();
                let best = match (ss, exact) {
                    (a, None) => a,
                    (None, b) => b,
                    (Some(a), Some(b)) => Candidate::better(Some(a), b),
                };
                self.conclude(proc, &tasks[i], best, chunk)
            })
            .collect();
        proc.span_end(partition_span);
        outcomes
    }
}

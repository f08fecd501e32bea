//! The three workloads and the measurement protocol shared by all of them.
//!
//! Every workload makes one pCLOUDS training run and one serving run. The
//! training workloads (`paper_cell`, `wide_p`) time `pclouds::train` and
//! then serve the trained tree over a holdout set; `serve_stream` trains
//! its model during set-up and times `serve` passes over a request stream.
//! Each run goes: set-up, one untimed warm-up rep, timed reps, a serving
//! check in all three layouts, and with `--trace 1` one traced rep plus
//! probes of single layers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pdc_cgm::{Cluster, MachineConfig, MetricsRegistry, ProcStats, Wire};
use pdc_clouds::{accuracy, build_tree, CloudsParams, DecisionTree, Reservoir};
use pdc_datagen::{generate, GeneratorConfig, Record, RecordStream};
use pdc_dnc::Strategy;
use pdc_pario::{BackendKind, DiskFarm, EngineConfig, ReplacementPolicy};
use pdc_pclouds::{load_dataset_stream, train, PcloudsConfig, RootInfo, TrainOutput};
use pdc_serve::{
    serve_model, stage_requests, Layout, Predictor, ServeConfig, ServeReport, ALL_LAYOUTS,
};

use crate::host::{cpu_seconds, median, mix64, nproc, peak_rss_mb, shuffle, HostSpans};
use crate::metrics::{unit_of, Metric, PER_LAYER};

/// Which call the timed reps measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timed {
    /// `pclouds::train` on freshly staged data.
    Train,
    /// One `serve` pass over freshly staged requests.
    Serve,
}

/// A workload's sizes and checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// The call the timed reps measure.
    pub timed: Timed,
    /// Training records.
    pub n_train: usize,
    /// Simulated processors.
    pub p: usize,
    /// Divisor of the machine's cache sizes and seek latency, as the bench
    /// harness scales them: 20 is its default scale, 100 its quick scale.
    pub scale_divisor: usize,
    /// Records served: the holdout set of a training workload, the request
    /// stream of `serve_stream`.
    pub n_serve: u64,
    /// Records per scoring batch.
    pub batch: usize,
    /// Complete set-ups made to take the median `setup_s` of
    /// `serve_stream`. Training workloads stage afresh before every rep,
    /// and each of those stagings is a set-up sample.
    pub setup_reps: usize,
    /// Timed reps made even when `--seconds` runs out first.
    pub min_reps: usize,
    /// A rep whose accuracy is below this fails.
    pub accuracy_floor: f64,
    /// Records in the `clouds::build_tree` probe and the scoring probe.
    pub probe_records: usize,
    /// Messages the `cgm` probe aims to send.
    pub probe_messages: u64,
}

/// Names accepted by `--workload`.
pub const WORKLOADS: [&str; 3] = ["paper_cell", "wide_p", "serve_stream"];

impl Spec {
    /// The workload called `name`, at full benchmark size.
    pub fn by_name(name: &str) -> Option<Spec> {
        let paper_cell = Spec {
            name: "paper_cell",
            timed: Timed::Train,
            n_train: 600_000,
            p: 4,
            scale_divisor: 20,
            n_serve: 1 << 20,
            batch: 1024,
            setup_reps: 3,
            min_reps: 3,
            accuracy_floor: 0.95,
            probe_records: 50_000,
            probe_messages: 20_000,
        };
        match name {
            "paper_cell" => Some(paper_cell),
            "wide_p" => Some(Spec {
                name: "wide_p",
                n_train: 72_000,
                p: 64,
                scale_divisor: 100,
                ..paper_cell
            }),
            "serve_stream" => Some(Spec {
                name: "serve_stream",
                timed: Timed::Serve,
                n_serve: 1 << 22,
                ..paper_cell
            }),
            _ => None,
        }
    }

    /// The same workload shrunk for self-tests: same code paths, seconds
    /// instead of minutes even in a debug build.
    pub fn tiny(self) -> Spec {
        Spec {
            n_train: 20_000,
            p: self.p.min(8),
            n_serve: 8_192,
            batch: 256,
            setup_reps: 2,
            min_reps: 2,
            probe_records: 2_000,
            probe_messages: 500,
            ..self
        }
    }

    /// The simulated machine: `MachineConfig::default()` (and so its default
    /// executor) with cache sizes and seek latency scaled like the bench
    /// harness scales them. Built here, not read from the environment.
    pub fn machine(&self) -> MachineConfig {
        let mut cfg = MachineConfig::default();
        let div = self.scale_divisor;
        cfg.cost.disk.cache_bytes = (cfg.cost.disk.cache_bytes / div).max(64 * 1024);
        cfg.cost.cache.capacity_bytes = (cfg.cost.cache.capacity_bytes / div).max(16 * 1024);
        cfg.cost.disk.access_latency /= div as f64;
        cfg
    }

    /// The training configuration of the bench harness's experiments.
    pub fn pclouds(&self) -> PcloudsConfig {
        let mut config = PcloudsConfig::paper_scaled(self.n_train as u64);
        config.clouds = CloudsParams {
            q_root: (10_000 / self.scale_divisor).max(500),
            sample_size: (self.n_train / 20).clamp(2_000, 200_000),
            ..CloudsParams::default()
        };
        config
    }

    /// The disk engine of the serving farms: an LRU buffer pool with
    /// prefetch, as in the `fig_serving` harness.
    pub fn serve_engine(&self) -> EngineConfig {
        EngineConfig {
            page_bytes: 16 * 1024,
            budget_bytes: 32 * 16 * 1024,
            policy: ReplacementPolicy::Lru,
            prefetch: true,
        }
    }

    /// Generator of the served records, drawn from a seed other than the
    /// training data's.
    pub fn serve_generator(&self, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            seed: mix64(seed ^ 0x5e21_e5ed),
            ..GeneratorConfig::default()
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The metrics of the requested set, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Checked operations attempted.
    pub attempted: u64,
    /// Checked operations that failed or panicked.
    pub failed: u64,
    /// One line recording the inputs and the host.
    pub info: String,
    /// Host spans around every call into the program.
    pub spans: HostSpans,
}

impl Outcome {
    /// Failed operations over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Options of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Workload seed: places the training records on the disks and draws
    /// the served records.
    pub seed: u64,
    /// Host seconds of timed phase to measure.
    pub seconds: f64,
    /// Report per-layer metrics (with a traced rep and probes) instead of
    /// end-to-end metrics.
    pub trace: bool,
}

/// Run `spec` once and collect the metrics `opts.trace` selects.
pub fn run(spec: &Spec, opts: RunOptions) -> Outcome {
    let mut bench = Bench::new(spec, opts.seed);
    let info = format!(
        "workload={} seed={} n_train={} n_serve={} p={} executor={:?} nproc={} trace={}",
        spec.name,
        opts.seed,
        spec.n_train,
        spec.n_serve,
        spec.p,
        bench.machine.backend,
        nproc(),
        u8::from(opts.trace),
    );
    let mut m = Metrics::default();
    bench.measure(opts, &mut m);
    let metrics = if opts.trace {
        m.per_layer()
    } else {
        m.end_to_end()
    };
    Outcome {
        metrics,
        attempted: bench.attempted,
        failed: bench.failed,
        info,
        spans: bench.spans,
    }
}

/// Training data staged on a fresh farm.
struct Staged {
    farm: DiskFarm,
    root: RootInfo,
}

/// A training rep that passed its checks.
struct TrainRep {
    out: TrainOutput,
    bytes: Vec<u8>,
    gen_s: f64,
    stage_s: f64,
    setup_s: f64,
    host_s: f64,
    cpu_s: f64,
}

/// A serving pass that passed its checks.
struct ServeRep {
    report: ServeReport,
    host_s: f64,
    cpu_s: f64,
}

/// The outputs every later rep must reproduce bit for bit.
struct Reference {
    tree: DecisionTree,
    bytes: Vec<u8>,
    train_bits: u64,
    /// Direct classification of every served record by `tree`.
    expected: Vec<u8>,
    /// How many of `expected` match the records' labels.
    expected_correct: u64,
    /// Virtual makespan of the first flat serving pass.
    serve_bits: Option<u64>,
}

/// Everything measured in one run, before it is named.
#[derive(Default)]
struct Metrics {
    setup_s: Vec<f64>,
    datagen_ns: Vec<f64>,
    stage_s: Vec<f64>,
    host_s: Vec<f64>,
    cpu_s: Vec<f64>,
    warmup_s: f64,
    accuracy: f64,
    virtual_s: f64,
    serve: Vec<(Layout, ServeReport)>,
    train: Option<TrainOutput>,
    traced_host_s: f64,
    span_self_s: [f64; 4],
    span_self_total: f64,
    dnc_small_s: f64,
    compile_us: [f64; 3],
    score_ns: [f64; 3],
    clouds_ns: f64,
    cgm_us_per_msg: f64,
    peak_rss_mb: f64,
    /// Records the timed phase trains on or scores.
    n_timed_records: f64,
    /// Training records, for the per-record generation cost.
    n_train: f64,
    p: f64,
}

/// Span-name groups whose share of the traced rep's virtual self-seconds
/// is reported. Shares, because the `pario.*` self time depends only on the
/// tree and would read the same for every seed in seconds.
/// `dnc.*` is not among them: the D&C layer only orchestrates, so every
/// `dnc.*` span's self time is zero and the small-task phase is reported
/// by its inclusive time instead.
const SPAN_GROUPS: [&str; 4] = ["pclouds.", "cgm.", "pario.", "serve."];

struct Bench<'a> {
    spec: &'a Spec,
    seed: u64,
    /// Generator of the served records.
    serve_gen: GeneratorConfig,
    machine: MachineConfig,
    config: PcloudsConfig,
    spans: HostSpans,
    attempted: u64,
    failed: u64,
}

impl<'a> Bench<'a> {
    fn new(spec: &'a Spec, seed: u64) -> Self {
        Bench {
            spec,
            seed,
            serve_gen: spec.serve_generator(seed),
            machine: spec.machine(),
            config: spec.pclouds(),
            spans: HostSpans::default(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Time `f` as a host span named `name`, nested under the innermost
    /// open one. Returns `f`'s result and its wall seconds.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let idx = self.spans.enter(name);
        let out = f(self);
        (out, self.spans.exit(idx))
    }

    /// Run one checked operation. A failed check or a panic counts as a
    /// failed operation and yields `None`, so the operation contributes no
    /// timing; the run goes on.
    fn op<T>(&mut self, what: &str, f: impl FnOnce(&mut Self) -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let depth = self.spans.depth();
        let outcome = catch_unwind(AssertUnwindSafe(|| f(self)));
        self.spans.unwind_to(depth);
        let message = match outcome {
            Ok(Ok(value)) => return Some(value),
            Ok(Err(message)) => message,
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string()),
        };
        self.failed += 1;
        eprintln!("perfbench: {} {what} failed: {message}", self.spec.name);
        None
    }

    fn measure(&mut self, opts: RunOptions, m: &mut Metrics) {
        let spec = self.spec;
        m.n_timed_records = match spec.timed {
            Timed::Train => spec.n_train as f64,
            Timed::Serve => spec.n_serve as f64,
        };
        m.n_train = spec.n_train as f64;
        m.p = spec.p as f64;
        let serve_gen = self.serve_gen;
        // Training workloads score every rep's tree on the holdout set;
        // `serve_stream` never holds its requests in memory.
        let holdout = match spec.timed {
            Timed::Train => {
                self.time("datagen.generate", |_| {
                    generate(spec.n_serve as usize, serve_gen)
                })
                .0
            }
            Timed::Serve => Vec::new(),
        };

        let Some(reference) = self.reference(m, &holdout) else {
            return;
        };
        self.timed_reps(opts.seconds, m, &reference, &holdout);
        self.layout_checks(m, &reference);
        m.accuracy = match spec.timed {
            Timed::Train => accuracy(&reference.tree, &holdout),
            Timed::Serve => reference.expected_correct as f64 / spec.n_serve as f64,
        };
        if opts.trace {
            self.traced_rep(m, &reference);
            self.probes(m, &reference);
        }
    }

    /// Set up, make the untimed warm-up rep, and fix the outputs every
    /// later rep must reproduce.
    fn reference(&mut self, m: &mut Metrics, holdout: &[Record]) -> Option<Reference> {
        let spec = self.spec;
        let first = match spec.timed {
            Timed::Train => {
                let rep = self.op("warm-up train", |b| b.train_rep(holdout, None, false))?;
                m.add_setup(&rep, rep.setup_s);
                m.warmup_s = rep.host_s;
                rep
            }
            Timed::Serve => {
                let (rep, setup_s) = self.op("set-up", |b| b.serve_setup(None))?;
                m.add_setup(&rep, setup_s);
                rep
            }
        };
        let tree = first.out.tree.clone();
        let (expected, expected_correct) = self
            .time("expected", |b| {
                expected_predictions(&tree, b.serve_gen, spec.n_serve)
            })
            .0;
        let mut reference = Reference {
            train_bits: first.out.runtime().to_bits(),
            bytes: first.bytes,
            tree,
            expected,
            expected_correct,
            serve_bits: None,
        };
        m.virtual_s = first.out.runtime();
        m.train = Some(first.out);
        if spec.timed == Timed::Serve {
            let warm = self.op("warm-up serve", |b| {
                b.serve_rep(&reference, Layout::Flat, false, None)
            })?;
            m.warmup_s = warm.host_s;
            m.virtual_s = warm.report.makespan;
            reference.serve_bits = Some(warm.report.makespan.to_bits());
        }
        // Memory of one set-up and one rep. Later reps only add what the
        // allocator retains between reps, which varies from run to run.
        m.peak_rss_mb = peak_rss_mb();
        if spec.timed == Timed::Serve {
            // The remaining set-up samples; each must train the same tree.
            let want = (reference.bytes.clone(), reference.train_bits);
            for _ in 1..spec.setup_reps {
                if let Some((rep, setup_s)) = self.op("set-up", |b| b.serve_setup(Some(&want))) {
                    m.add_setup(&rep, setup_s);
                }
            }
        }
        Some(reference)
    }

    /// Timed reps until `seconds` of wall time have passed in the rep loop
    /// (restaging between reps included), and at least `min_reps` passed.
    /// A wall-clock cap stops a loop whose reps keep failing.
    fn timed_reps(
        &mut self,
        seconds: f64,
        m: &mut Metrics,
        reference: &Reference,
        holdout: &[Record],
    ) {
        let spec = self.spec;
        let cap = 2.0 * seconds + 30.0;
        let started = Instant::now();
        let want = (reference.bytes.clone(), reference.train_bits);
        loop {
            let elapsed = started.elapsed().as_secs_f64();
            if (elapsed >= seconds && m.host_s.len() >= spec.min_reps) || elapsed >= cap {
                break;
            }
            let timing = match spec.timed {
                Timed::Train => self
                    .op("timed train", |b| b.train_rep(holdout, Some(&want), false))
                    .map(|rep| {
                        m.add_setup(&rep, rep.setup_s);
                        (rep.host_s, rep.cpu_s)
                    }),
                Timed::Serve => self
                    .op("timed serve", |b| {
                        b.serve_rep(reference, Layout::Flat, false, reference.serve_bits)
                    })
                    .map(|rep| (rep.host_s, rep.cpu_s)),
            };
            if let Some((host_s, cpu_s)) = timing {
                m.host_s.push(host_s);
                m.cpu_s.push(cpu_s);
            }
        }
    }

    /// Serve the reference tree once in every layout; each layout must
    /// predict exactly what the tree predicts directly.
    fn layout_checks(&mut self, m: &mut Metrics, reference: &Reference) {
        for layout in ALL_LAYOUTS {
            let want = reference.serve_bits.filter(|_| layout == Layout::Flat);
            if let Some(rep) = self.op("layout check", |b| {
                b.serve_rep(reference, layout, false, want)
            }) {
                m.serve.push((layout, rep.report));
            }
        }
    }

    /// One traced rep: spans on in both the training and the serving run.
    /// Its trees, predictions and virtual times must equal the untraced
    /// ones bit for bit.
    fn traced_rep(&mut self, m: &mut Metrics, reference: &Reference) {
        let want = (reference.bytes.clone(), reference.train_bits);
        let flat_bits = m
            .serve
            .iter()
            .find(|(l, _)| *l == Layout::Flat)
            .map(|(_, r)| r.makespan.to_bits());
        let train = self.op("traced train", |b| b.train_rep(&[], Some(&want), true));
        let serve = self.op("traced serve", |b| {
            b.serve_rep(reference, Layout::Flat, true, flat_bits)
        });
        if let (Some(train), Some(serve)) = (train, serve) {
            m.traced_host_s = match self.spec.timed {
                Timed::Train => train.host_s,
                Timed::Serve => serve.host_s,
            };
            for stats in [&train.out.run.stats, &serve.report.stats] {
                add_span_groups(stats, m);
            }
        }
    }

    /// Probes of single layers, timed from outside.
    fn probes(&mut self, m: &mut Metrics, reference: &Reference) {
        let spec = self.spec;
        let k = spec.probe_records;
        if let Some(us) = self.op("cgm probe", |b| b.cgm_probe()) {
            m.cgm_us_per_msg = us;
        }
        if let Some(ns) = self.op("clouds probe", |b| {
            let records = generate(k, GeneratorConfig::default());
            let params = CloudsParams {
                sample_size: (k / 20).max(100),
                ..b.config.clouds.clone()
            };
            let times = (0..3)
                .map(|_| {
                    b.time("clouds.build_tree", |_| build_tree(&records, &params))
                        .1
                })
                .collect::<Vec<_>>();
            Ok(median(&times) * 1e9 / k as f64)
        }) {
            m.clouds_ns = ns;
        }
        let records = generate(k, self.serve_gen);
        for (i, layout) in ALL_LAYOUTS.into_iter().enumerate() {
            let probe = self.op("serve probe", |b| {
                let compiles = (0..15)
                    .map(|_| {
                        b.time("serve.compile", |_| layout.compile(&reference.tree))
                            .1
                    })
                    .collect::<Vec<_>>();
                let model = layout.compile(&reference.tree);
                let mut scores = Vec::new();
                for _ in 0..3 {
                    let (preds, s) = b.time("serve.predict_all", |_| model.predict_all(&records));
                    if reference.expected.get(..k) != Some(&preds[..]) {
                        return Err(format!(
                            "{} probe predictions differ from the tree",
                            layout.name()
                        ));
                    }
                    scores.push(s);
                }
                Ok((median(&compiles) * 1e6, median(&scores) * 1e9 / k as f64))
            });
            if let Some((us, ns)) = probe {
                m.compile_us[i] = us;
                m.score_ns[i] = ns;
            }
        }
    }

    /// `Cluster::run` on a fixed allreduce pattern at the workload's `p`
    /// and machine: host microseconds per message sent.
    fn cgm_probe(&mut self) -> Result<f64, String> {
        let p = self.spec.p;
        let per_round = (p as u64 * u64::from(p.next_power_of_two().trailing_zeros())).max(1);
        let rounds = (self.spec.probe_messages / per_round).max(1);
        let cluster = Cluster::with_config(p, self.machine.clone());
        let mut per_msg = Vec::new();
        for _ in 0..3 {
            let (out, secs) = self.time("cgm.cluster_run", |_| {
                cluster.run(|proc| {
                    let mut total = 0u64;
                    for _ in 0..rounds {
                        let v = proc.allreduce(vec![1u64; 32], |a, b| {
                            a.iter().zip(&b).map(|(x, y)| x + y).collect()
                        });
                        total += v[0];
                    }
                    total
                })
            });
            if out.results.iter().any(|&t| t != rounds * p as u64) {
                return Err("allreduce sums are wrong".into());
            }
            let messages = out.total_counters().messages_sent.max(1);
            per_msg.push(secs * 1e6 / messages as f64);
        }
        Ok(median(&per_msg))
    }

    /// Generate the canonical training set, place it on a fresh farm in the
    /// seed's random order, and restore the canonical pre-drawn sample.
    /// Returns the staged data, generation seconds and staging seconds.
    fn stage_training(&mut self) -> (Staged, f64, f64) {
        let (n, p) = (self.spec.n_train, self.spec.p);
        let (mut records, gen_s) = self.time("datagen.generate", |_| {
            generate(n, GeneratorConfig::default())
        });
        let (size, sample_seed) = (
            self.config.clouds.sample_size,
            self.config.clouds.sample_seed,
        );
        let mut reservoir = Reservoir::new(size, sample_seed);
        for r in &records {
            reservoir.offer(*r);
        }
        let sample = reservoir.into_sample();
        shuffle(&mut records, self.seed);
        let farm = DiskFarm::new(p, BackendKind::InMemory);
        let (mut root, stage_s) = self.time("pario.load_dataset_stream", |_| {
            load_dataset_stream(&farm, records.iter().copied(), size, sample_seed)
        });
        root.sample = sample;
        (Staged { farm, root }, gen_s, stage_s)
    }

    /// Stage and train once. Fails if the tree's holdout accuracy is below
    /// the floor, or if its bytes or virtual time differ from `want`.
    fn train_rep(
        &mut self,
        holdout: &[Record],
        want: Option<&(Vec<u8>, u64)>,
        traced: bool,
    ) -> Result<TrainRep, String> {
        let ((staged, gen_s, stage_s), setup_s) = self.time("setup", |b| b.stage_training());
        let mut machine = self.machine.clone();
        machine.spans = traced;
        let cluster = Cluster::with_config(self.spec.p, machine);
        let cpu0 = cpu_seconds();
        let (out, host_s) = self.time("pclouds.train", |b| {
            train(
                &cluster,
                &staged.farm,
                &staged.root,
                &b.config,
                Strategy::Mixed,
            )
        });
        let cpu_s = cpu_seconds() - cpu0;
        drop(staged);
        if !holdout.is_empty() {
            let acc = accuracy(&out.tree, holdout);
            if acc < self.spec.accuracy_floor {
                return Err(format!(
                    "holdout accuracy {acc} below floor {}",
                    self.spec.accuracy_floor
                ));
            }
        }
        let bytes = out.tree.to_bytes();
        if let Some((want_bytes, want_bits)) = want {
            if &bytes != want_bytes {
                return Err("tree wire bytes differ from the first rep's".into());
            }
            if out.runtime().to_bits() != *want_bits {
                return Err(format!(
                    "virtual time {} differs from the first rep's {}",
                    out.runtime(),
                    f64::from_bits(*want_bits)
                ));
            }
        }
        Ok(TrainRep {
            out,
            bytes,
            gen_s,
            stage_s,
            setup_s,
            host_s,
            cpu_s,
        })
    }

    /// `serve_stream`'s set-up: stage and train the served model, compile
    /// it and stage the requests. Returns the training rep and the host
    /// seconds of the whole set-up.
    fn serve_setup(&mut self, want: Option<&(Vec<u8>, u64)>) -> Result<(TrainRep, f64), String> {
        let rep = self.train_rep(&[], want, false)?;
        let (_, serve_setup_s) = self.time("setup.serve", |b| {
            let model = b
                .time("serve.compile", |_| Layout::Flat.compile(&rep.out.tree))
                .0;
            (model, b.serve_farm())
        });
        let setup_s = rep.setup_s + rep.host_s + serve_setup_s;
        Ok((rep, setup_s))
    }

    /// A fresh serving farm with the served records staged on it, so no
    /// pass inherits a warm buffer pool from the one before.
    fn serve_farm(&mut self) -> DiskFarm {
        let farm = DiskFarm::with_engine(
            self.spec.p,
            BackendKind::InMemory,
            &self.spec.serve_engine(),
        );
        let (n, serve_gen) = (self.spec.n_serve, self.serve_gen);
        self.time("serve.stage_requests", |_| {
            stage_requests(&farm, n, serve_gen)
        });
        farm
    }

    /// One serving pass of the reference tree compiled into `layout`, on a
    /// fresh farm. Fails if a prediction differs from classifying the
    /// record directly with the tree, if the accuracy is below the floor,
    /// or if the virtual makespan differs from `want_bits`.
    fn serve_rep(
        &mut self,
        reference: &Reference,
        layout: Layout,
        traced: bool,
        want_bits: Option<u64>,
    ) -> Result<ServeRep, String> {
        let farm = self.serve_farm();
        let model = self
            .time("serve.compile", |_| layout.compile(&reference.tree))
            .0;
        let mut machine = self.machine.clone();
        machine.spans = traced;
        let cluster = Cluster::with_config(self.spec.p, machine);
        let cfg = ServeConfig::new(layout, self.spec.batch).with_exact_latencies();
        let cpu0 = cpu_seconds();
        let (report, host_s) = self.time("serve.serve", |_| {
            serve_model(&cluster, &farm, &model, &cfg)
        });
        let cpu_s = cpu_seconds() - cpu0;
        drop(farm);
        let served: Vec<u8> = report.predictions.concat();
        if served != reference.expected {
            return Err(format!(
                "{} served predictions differ from the tree's direct classification",
                layout.name()
            ));
        }
        let acc = reference.expected_correct as f64 / self.spec.n_serve as f64;
        if acc < self.spec.accuracy_floor {
            return Err(format!(
                "served accuracy {acc} below floor {}",
                self.spec.accuracy_floor
            ));
        }
        if let Some(bits) = want_bits {
            if report.makespan.to_bits() != bits {
                return Err(format!(
                    "serving virtual time {} differs from the first pass's {}",
                    report.makespan,
                    f64::from_bits(bits)
                ));
            }
        }
        Ok(ServeRep {
            report,
            host_s,
            cpu_s,
        })
    }
}

/// The tree's direct classification of the `n` records `gen` streams, and
/// how many of them match their labels.
fn expected_predictions(tree: &DecisionTree, gen: GeneratorConfig, n: u64) -> (Vec<u8>, u64) {
    let mut preds = Vec::with_capacity(n as usize);
    let mut correct = 0u64;
    for r in RecordStream::new(gen).take(n as usize) {
        let c = tree.predict(&r);
        correct += u64::from(c == r.class);
        preds.push(c);
    }
    (preds, correct)
}

/// Add each span group's virtual self-seconds, every span's self-seconds,
/// and the inclusive seconds of `dnc.small`, summed over ranks.
fn add_span_groups(stats: &[ProcStats], m: &mut Metrics) {
    for s in MetricsRegistry::from_stats(stats).by_name() {
        m.span_self_total += s.total_self_seconds;
        for (slot, prefix) in m.span_self_s.iter_mut().zip(SPAN_GROUPS) {
            if s.name.starts_with(prefix) {
                *slot += s.total_self_seconds;
            }
        }
        if s.name == "dnc.small" {
            m.dnc_small_s += s.total_seconds;
        }
    }
}

fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit_of(name),
        value,
    }
}

impl Metrics {
    /// Keep the set-up samples of a rep that passed its checks.
    fn add_setup(&mut self, rep: &TrainRep, setup_s: f64) {
        self.setup_s.push(setup_s);
        self.datagen_ns.push(rep.gen_s * 1e9 / self.n_train);
        self.stage_s.push(rep.stage_s);
    }

    fn flat(&self) -> Option<&ServeReport> {
        self.serve
            .iter()
            .find(|(l, _)| *l == Layout::Flat)
            .map(|(_, r)| r)
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let host_s = median(&self.host_s);
        let latency = self.flat().and_then(|r| r.latency_exact);
        vec![
            metric("setup_s", median(&self.setup_s)),
            metric("host_s", host_s),
            metric("host_krec_per_s", self.n_timed_records / host_s / 1e3),
            metric("host_cpu_s", median(&self.cpu_s)),
            metric("peak_rss_mb", self.peak_rss_mb),
            metric("virtual_s", self.virtual_s),
            metric("virtual_p50_batch_ms", latency.map_or(0.0, |l| l.p50 * 1e3)),
            metric("virtual_p99_batch_ms", latency.map_or(0.0, |l| l.p99 * 1e3)),
            metric("accuracy", self.accuracy),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let mut out = vec![
            metric("datagen.host_ns_per_rec", median(&self.datagen_ns)),
            metric("pario.stage_host_s", median(&self.stage_s)),
        ];
        // A run whose reference rep failed has no training or serving
        // output; it still reports every metric (as 0) next to its failures.
        let t = self.train.as_ref();
        let c = t.map(|t| t.run.total_counters()).unwrap_or_default();
        let rank_max = |f: fn(&pdc_dnc::DncReport) -> usize| {
            t.map_or(0, |t| t.run.results.iter().map(f).max().unwrap_or(0)) as f64
        };
        let build_max = |f: fn(&pdc_pclouds::BuildMetrics) -> f64| {
            t.map_or(0.0, |t| t.metrics.iter().map(f).fold(0.0, f64::max))
        };
        // Phase times as shares of the training makespan: the stats and
        // small-solve times depend only on per-rank record counts and the
        // tree, so in seconds they would read the same for every seed.
        let makespan = t.map_or(0.0, |t| t.runtime());
        let phase_share = |f: fn(&pdc_pclouds::BuildMetrics) -> f64| {
            if makespan > 0.0 {
                build_max(f) / makespan
            } else {
                0.0
            }
        };
        out.extend([
            metric("pario.read_mb", c.disk_read_bytes as f64 / 1e6),
            metric("pario.write_mb", c.disk_write_bytes as f64 / 1e6),
            metric("pario.io_s", c.io_time),
            metric("cgm.messages", c.messages_sent as f64),
            metric("cgm.mb_sent", c.bytes_sent as f64 / 1e6),
            metric("cgm.comm_s", c.comm_time),
            metric("cgm.imbalance", t.map_or(0.0, |t| t.run.imbalance())),
            metric("dnc.large_nodes", rank_max(|r| r.large_tasks)),
            metric("dnc.small_tasks", rank_max(|r| r.small_tasks)),
            metric("clouds.compute_s", c.compute_time),
            metric(
                "clouds.root_survival_ratio",
                build_max(|b| b.root_survival_ratio),
            ),
            metric("pclouds.stats_share", phase_share(|b| b.time_stats)),
            metric("pclouds.derive_share", phase_share(|b| b.time_derive)),
            metric("pclouds.partition_share", phase_share(|b| b.time_partition)),
            metric(
                "pclouds.small_redistribute_share",
                phase_share(|b| b.time_small_redistribute),
            ),
            metric(
                "pclouds.small_solve_share",
                phase_share(|b| b.time_small_solve),
            ),
        ]);
        let flat = self.flat();
        let c = flat.map(|f| total_counters(&f.stats)).unwrap_or_default();
        let lookups = (c.cache_hits + c.cache_misses).max(1);
        out.extend([
            metric(
                "pario.cache_hit_ratio",
                c.cache_hits as f64 / lookups as f64,
            ),
            metric("pario.io_stall_s", c.io_stall_time),
            metric(
                "serve.deploy_share",
                flat.map_or(0.0, |f| f.deploy_seconds / f.makespan),
            ),
            metric(
                "serve.batches",
                flat.map_or(0.0, |f| f.latency.batches as f64),
            ),
        ]);
        out.extend([
            metric("cgm.host_us_per_msg", self.cgm_us_per_msg),
            metric("clouds.host_ns_per_rec", self.clouds_ns),
        ]);
        for (i, layout) in ALL_LAYOUTS.into_iter().enumerate() {
            let name = layout.name();
            out.push(metric(
                &format!("serve.compile_host_us.{name}"),
                self.compile_us[i],
            ));
            out.push(metric(
                &format!("serve.score_host_ns_per_rec.{name}"),
                self.score_ns[i],
            ));
            let bytes = self
                .serve
                .iter()
                .find(|(l, _)| *l == layout)
                .map_or(0, |(_, r)| r.model_bytes);
            out.push(metric(&format!("serve.model_bytes.{name}"), bytes as f64));
        }
        for (prefix, secs) in SPAN_GROUPS.iter().zip(self.span_self_s) {
            let share = if self.span_self_total > 0.0 {
                secs / self.span_self_total
            } else {
                0.0
            };
            out.push(metric(
                &format!("trace.self_share.{}", prefix.trim_end_matches('.')),
                share,
            ));
        }
        out.push(metric("trace.s.dnc_small", self.dnc_small_s));
        out.extend([
            metric(
                "trace.overhead_ratio",
                self.traced_host_s / median(&self.host_s),
            ),
            metric("host.warmup_s", self.warmup_s),
            metric("host.setup_reps", self.setup_s.len() as f64),
            metric("host.timed_reps", self.host_s.len() as f64),
            metric("bench.n_records", self.n_timed_records),
            metric("bench.p", self.p),
            metric("bench.nproc", nproc() as f64),
        ]);
        // Catalogue order, so every run prints the same layout.
        let order = |m: &Metric| PER_LAYER.iter().position(|(n, _)| *n == m.name);
        out.sort_by_key(order);
        out
    }
}

/// Counters summed over every rank of a run.
fn total_counters(stats: &[ProcStats]) -> pdc_cgm::Counters {
    let mut total = pdc_cgm::Counters::default();
    for s in stats {
        total.merge(&s.counters);
    }
    total
}

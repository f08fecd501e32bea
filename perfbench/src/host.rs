//! Host-side measurement: wall and CPU clocks, peak resident memory, the
//! benchmark's own in-memory span recorder, and the seeded shuffle that
//! places records on disks.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One host span recorded by the benchmark around a call into the program.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpan {
    /// What was called, e.g. `pclouds.train`.
    pub name: &'static str,
    /// Seconds since the recorder was created, at entry.
    pub start_s: f64,
    /// Seconds since the recorder was created, at exit.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder. Spans are kept until [`HostSpans::write_jsonl`]
/// writes them out at the end of a run, so recording costs no I/O.
#[derive(Debug)]
pub struct HostSpans {
    origin: Instant,
    spans: Vec<HostSpan>,
    open: Vec<usize>,
}

impl Default for HostSpans {
    fn default() -> Self {
        HostSpans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl HostSpans {
    /// Open a span named `name`, nested under the innermost open span.
    /// Returns its index for [`HostSpans::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(HostSpan {
            name,
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        idx
    }

    /// Close span `idx` (the innermost open one) and return its seconds.
    pub fn exit(&mut self, idx: usize) -> f64 {
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "host spans close innermost first"
        );
        let span = &mut self.spans[idx];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Close spans left open by a panic between enter and exit, so later
    /// spans get the right parent.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.origin.elapsed().as_secs_f64();
        while self.open.len() > depth {
            let idx = self.open.pop().expect("depth checked above");
            self.spans[idx].end_s = now;
        }
    }

    /// Number of currently open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Write one JSON object per span (`name`, `start_s`, `end_s`, `parent`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
                s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s followed by fourteen
/// `long` counters.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the 64-bit Linux
    // `struct rusage` (the crate only builds for that target, see the
    // compile_error below); getrusage writes exactly that struct and keeps
    // no pointer to it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads getrusage's Linux layout: it needs 64-bit Linux");

/// User plus system CPU seconds of the whole process so far, threads that
/// have already exited included, at microsecond resolution.
pub fn cpu_seconds() -> f64 {
    let usage = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Peak resident set size of this process so far (`ru_maxrss`, the
/// kernel's `VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    // ru_maxrss, the first counter after the two timevals, is in KiB.
    rusage().counters[0] as f64 / 1024.0
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// SplitMix64 step: a well-mixed 64-bit value from any state.
pub fn mix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = mix64(seed);
    for i in (1..items.len()).rev() {
        state = mix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_unwind() {
        let mut spans = HostSpans::default();
        let outer = spans.enter("outer");
        let inner = spans.enter("inner");
        spans.exit(inner);
        spans.exit(outer);
        let all = &spans.spans;
        assert_eq!(all.len(), 2);
        assert_eq!(all[1].parent, Some(0));
        assert!(all[0].end_s >= all[1].end_s);
        let depth = spans.depth();
        spans.enter("left-open");
        spans.unwind_to(depth);
        let after = spans.enter("after");
        spans.exit(after);
        assert_eq!(spans.spans.last().map(|s| s.parent), Some(None));
    }

    #[test]
    fn median_and_shuffle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b, "same seed, same order");
        shuffle(&mut b, 8);
        assert_ne!(a, b);
        b.sort();
        assert_eq!(b, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn process_clocks_are_positive() {
        let spin: u64 = (0..2_000_000u64).map(std::hint::black_box).sum();
        assert!(spin > 0);
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(nproc() >= 1);
    }
}

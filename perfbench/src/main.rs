//! Command line of the benchmark:
//!
//! ```text
//! pdc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one information line and, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Host spans are written to `out/` beside this crate when the run ends.

use std::path::Path;
use std::process::ExitCode;

use pdc_perfbench::{result_line, run, RunOptions, Spec, WORKLOADS};

fn usage() -> String {
    format!(
        "usage: pdc-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<(Spec, RunOptions), String> {
    let mut workload = None;
    let mut opts = RunOptions {
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok((spec, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("pdc-perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = run(&spec, opts);
    let spans_file = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "host_spans-{}-seed{}-trace{}.jsonl",
            spec.name,
            opts.seed,
            u8::from(opts.trace)
        ));
    if let Err(e) = outcome.spans.write_jsonl(&spans_file) {
        eprintln!("pdc-perfbench: cannot write {}: {e}", spans_file.display());
    }
    println!(
        "# {} ops={} failed={} error_rate={}",
        outcome.info,
        outcome.attempted,
        outcome.failed,
        outcome.error_rate()
    );
    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}

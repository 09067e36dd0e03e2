//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name with its unit,
//! then, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when any answer was wrong or any call failed.

use perfbench::report::{json_str, result_line, Metric};
use perfbench::spec::{Scale, Workload};
use perfbench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <explore|update_mix|budget|converged_reads> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let span_file = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{seed}.tsv", workload.name()))
    });
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        span_file,
    })
}

fn print_metrics(section: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{section} {} {} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    // Parent and change must both run the shipped defaults: any
    // CRACKDB_* override (policy, kernel, snapshot reads, spill) would
    // measure a different configuration.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("CRACKDB_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let prov: Vec<String> = out
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("provenance {{{}}}", prov.join(", "));
    print_metrics("end_to_end", &out.end_to_end);
    print_metrics("reported", &out.extra);
    print_metrics("per_layer", &out.per_layer);
    for n in &out.notes {
        println!("note {n}");
    }
    let c = &out.checked;
    let correct = c.mismatches == 0;
    let metrics = if opts.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!("{}", result_line(correct, c.attempted, c.failed(), metrics));
    if correct && c.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! `pktbench --workload <steady|churn|update> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric, or with `--trace 1` every per-layer metric, each
//! with its unit). Context lines go to standard error. Exits 1 when the
//! correctness gate fails and 2 on bad arguments.

use pktbench::metrics::{END_TO_END, PER_LAYER};
use pktbench::workload::Kind;
use pktbench::{result_json, run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pktbench --workload <steady|churn|update> --seed <n> --seconds <s> \
                     --trace <0|1> [--smoke] [--corrupt-digest]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: Kind::Steady,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt_digest: false,
        trace_out: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Kind::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--corrupt-digest" => o.corrupt_digest = true,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    o.workload = workload.ok_or("--workload is required")?;
    if o.trace {
        o.trace_out = Some(PathBuf::from(format!(
            ".pktbench/trace-{}-{}.tsv",
            o.workload.name(),
            o.seed
        )));
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pktbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&o);
    for n in &out.notes {
        eprintln!("pktbench: {n}");
    }
    if !out.correct {
        eprintln!("pktbench: correctness gate FAILED: {:?}", out.failures);
        return ExitCode::from(1);
    }
    let list: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", result_json(&out, list));
    ExitCode::SUCCESS
}

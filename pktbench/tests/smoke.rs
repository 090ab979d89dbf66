//! The benchmark's own tests, on the smoke-size profile: every metric is
//! emitted with its unit, the workloads separate the layers as designed,
//! and the correctness gate rejects a corrupted decision digest.

use pktbench::metrics::{END_TO_END, PER_LAYER};
use pktbench::workload::Kind;
use pktbench::{result_json, run, Options, Outcome};
use std::process::Command;

fn smoke(kind: Kind, trace: bool) -> Outcome {
    run(&Options {
        workload: kind,
        seed: 11,
        seconds: 0.3,
        trace,
        smoke: true,
        corrupt_digest: false,
        trace_out: None,
    })
}

#[test]
fn every_workload_passes_the_gate_and_emits_every_metric_with_its_unit() {
    for kind in [Kind::Steady, Kind::Churn, Kind::Update] {
        let out = smoke(kind, true);
        assert!(out.correct, "{}: {:?}", kind.name(), out.failures);
        assert_eq!(out.failed, 0);
        assert!(out.attempted > 0);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let m = out.metrics.0.iter().find(|m| m.name == *name);
            let m = m.unwrap_or_else(|| panic!("{}: {name} missing", kind.name()));
            assert_eq!(m.unit, *unit);
            assert!(m.value.is_finite(), "{}: {name} = {}", kind.name(), m.value);
        }
        for (name, _) in END_TO_END {
            assert!(
                out.metrics.get(name).unwrap() > 0.0,
                "{}: {name} is 0",
                kind.name()
            );
        }
        let line = result_json(&out, &PER_LAYER);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"trace.coverage\": {\"value\": "));
    }
}

#[test]
fn workloads_separate_the_layers() {
    let steady = smoke(Kind::Steady, true).metrics;
    let churn = smoke(Kind::Churn, true).metrics;
    let update = smoke(Kind::Update, true).metrics;
    for idle in ["learn.accepted", "cpu.installs", "transit.checks"] {
        assert_eq!(steady.get(idle), Some(0.0), "steady {idle}");
    }
    assert_eq!(churn.get("transit.checks"), Some(0.0));
    assert!(update.get("transit.checks").unwrap() > 0.0);
    assert!(update.get("update.completed").unwrap() > 0.0);
    let hit = |m: &pktbench::metrics::Metrics| m.get("conn_table.hit_ratio").unwrap();
    assert!(hit(&steady) > 0.99, "steady hit ratio {}", hit(&steady));
    assert!(
        hit(&churn) < 0.9 * hit(&steady),
        "churn hit ratio {}",
        hit(&churn)
    );
    let coverage = steady.get("trace.coverage").unwrap();
    assert!((0.9..=1.0).contains(&coverage), "coverage {coverage}");
}

#[test]
fn a_corrupted_digest_fails_the_gate() {
    let out = run(&Options {
        workload: Kind::Churn,
        seed: 11,
        seconds: 0.2,
        trace: false,
        smoke: true,
        corrupt_digest: true,
        trace_out: None,
    });
    assert!(!out.correct);
    assert!(out.failures.digest_mismatch);
}

#[test]
fn the_command_prints_one_result_line_and_exits_non_zero_on_a_failed_gate() {
    let bin = env!("CARGO_BIN_EXE_pktbench");
    let args = [
        "--workload",
        "update",
        "--seed",
        "3",
        "--seconds",
        "0.2",
        "--trace",
        "0",
        "--smoke",
    ];
    let ok = Command::new(bin)
        .args(args)
        .output()
        .expect("benchmark runs");
    assert!(ok.status.success());
    let stdout = String::from_utf8(ok.stdout).unwrap();
    let last = stdout.lines().last().unwrap();
    for (name, unit) in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {last}"
        );
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
    }
    assert!(
        !last.contains("wire.parse"),
        "per-layer metrics only with --trace 1"
    );

    let bad = Command::new(bin)
        .args(args)
        .arg("--corrupt-digest")
        .output()
        .expect("benchmark runs");
    assert_eq!(bad.status.code(), Some(1));
    assert!(bad.stdout.is_empty(), "no result line on a failed gate");

    let usage = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .unwrap();
    assert_eq!(usage.status.code(), Some(2));
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let listed: Vec<(String, String)> = doc
        .split("{\"name\": \"")
        .skip(1)
        .filter_map(|chunk| {
            let name = chunk.split('"').next()?.to_string();
            let unit = chunk
                .split("\"unit\": \"")
                .nth(1)?
                .split('"')
                .next()?
                .to_string();
            Some((name, unit))
        })
        .collect();
    let emitted: Vec<(String, String)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed, emitted);
    for w in ["steady", "churn", "update"] {
        assert!(doc.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
    }
}

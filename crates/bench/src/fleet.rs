//! `repro fleet` — fleet-scale steady-state bench (`BENCH_fleet.json`).
//!
//! Drives `sr-sim`'s fleet engine over the paper's ~100-cluster fleet:
//! prewarm a live population to the target occupancy, stream arrivals and
//! DIP-pool churn (with a mid-run update storm) for the simulated
//! duration, and verify per-connection consistency on every close. The
//! committed full profile holds 2.6 M live connections across 100
//! clusters; the smoke profile is the same machinery CI-sized.
//!
//! The report folds in the measured-occupancy SRAM fit
//! ([`sr_netwide::sram_fit`]): the engine's per-cluster peak occupancy is
//! scaled back to paper load and pushed through the `silkroad::memory`
//! model against the 100 MB per-switch budget — the deployment claim of
//! Fig 12, re-derived from held state instead of the synthesis formula.
//!
//! Gate logic lives in the `repro` binary; this module only measures.

use crate::envelope::{peak_rss_bytes, Envelope, Value};
use sr_netwide::{sram_fit, SramFitReport};
use sr_sim::{run_fleet, FleetParams, FleetReport};
use sr_workload::{synthesize_fleet, FleetConfig};

/// Per-switch SRAM budget the fit check uses (Fig 12's "modern ASIC").
pub const SRAM_BUDGET_MB: f64 = 100.0;

/// The fleet the bench simulates: 100 clusters (the default synthesis
/// mix is 96; the acceptance gate wants a round "about a hundred").
fn bench_fleet() -> FleetConfig {
    FleetConfig {
        pops: 30,
        frontends: 24,
        backends: 46,
        seed: 0xf1ee7,
    }
}

/// Engine parameters for the full or smoke profile.
pub fn fleet_params(smoke: bool) -> FleetParams {
    if smoke {
        FleetParams {
            fleet: bench_fleet(),
            seed: 0x0051_1c0a,
            target_conns: 150_000,
            sim_secs: 10,
            epoch_ms: 250,
            storm_factor: 10.0,
            workers: sr_exec::available_cores(),
        }
    } else {
        FleetParams {
            fleet: bench_fleet(),
            seed: 0x0051_1c0a,
            target_conns: 2_600_000,
            sim_secs: 60,
            epoch_ms: 100,
            storm_factor: 10.0,
            workers: sr_exec::available_cores(),
        }
    }
}

/// One fleet-bench run: the engine report plus host metadata and the
/// measured-occupancy SRAM fit.
#[derive(Clone, Debug)]
pub struct FleetBench {
    /// Whether this was the CI-sized smoke profile.
    pub smoke: bool,
    /// Parameters the engine ran with.
    pub params: FleetParams,
    /// What the engine measured.
    pub report: FleetReport,
    /// Measured-occupancy SRAM fit at [`SRAM_BUDGET_MB`].
    pub fit: SramFitReport,
    /// Cores on the host that ran the bench.
    pub host_cores: usize,
    /// Peak resident set of the process (`null` off-Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Wall-clock of the engine run, nanoseconds.
    pub elapsed_ns: u64,
}

/// Run the bench with explicit parameters (tests use tiny fleets).
#[allow(clippy::disallowed_methods)] // wall-clock is bench metadata
pub fn run_with(params: FleetParams, smoke: bool) -> FleetBench {
    let t0 = std::time::Instant::now();
    let report = run_fleet(&params);
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let specs = synthesize_fleet(params.fleet);
    let fit = sram_fit(&specs, &report.per_cluster_peak, SRAM_BUDGET_MB);
    FleetBench {
        smoke,
        params,
        report,
        fit,
        host_cores: sr_exec::available_cores(),
        peak_rss_bytes: peak_rss_bytes(),
        elapsed_ns,
    }
}

/// Run the committed full or smoke profile.
pub fn run(smoke: bool) -> FleetBench {
    run_with(fleet_params(smoke), smoke)
}

impl FleetBench {
    /// Render as the committed `BENCH_fleet.json` document.
    pub fn to_json(&self) -> String {
        let r = &self.report;
        let fit = &self.fit;
        Envelope {
            bench: "fleet",
            smoke: self.smoke,
            host_cores: self.host_cores,
            peak_rss_bytes: self.peak_rss_bytes,
            note: Some(
                "bytes_per_conn = (flow stores + timer wheels) / held_peak; sram_fit scales \
                 measured per-cluster peaks to paper occupancy",
            ),
            fields: vec![
                ("target_conns", self.params.target_conns.into()),
                ("sim_secs", self.params.sim_secs.into()),
                ("epoch_ms", self.params.epoch_ms.into()),
                ("storm_factor", Value::Float(self.params.storm_factor, 0)),
                ("clusters", r.clusters.into()),
                ("workers", r.workers.into()),
                ("epochs", r.epochs.into()),
                ("held_median", r.held_median.into()),
                ("held_peak", r.held_peak.into()),
                ("held_final", r.held_final.into()),
                ("opens", r.opens.into()),
                ("closes", r.closes.into()),
                ("opens_per_sec", Value::Float(r.opens_per_sec, 0)),
                ("pcc_violations", r.pcc_violations.into()),
                ("updates_applied", r.updates_applied.into()),
                ("updates_skipped", r.updates_skipped.into()),
                ("state_bytes", r.state_bytes.into()),
                ("bytes_per_conn", Value::Float(r.bytes_per_conn, 2)),
                ("control_bytes", r.control_bytes.into()),
                ("digest", Value::hex(r.digest)),
                ("elapsed_ns", self.elapsed_ns.into()),
                (
                    "sram_fit",
                    Value::Object(vec![
                        ("budget_mb", Value::Float(fit.budget_mb, 0)),
                        ("clusters", fit.clusters.into()),
                        ("fitting", fit.fitting.into()),
                        ("median_mb", Value::Float(fit.median_mb, 1)),
                        ("max_mb", Value::Float(fit.max_mb, 1)),
                        ("scale", Value::Float(fit.scale, 1)),
                    ]),
                ),
            ],
            points: None,
        }
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_bench_reports_sane_json() {
        let params = FleetParams {
            fleet: FleetConfig {
                pops: 2,
                frontends: 1,
                backends: 2,
                seed: 0xf1ee7,
            },
            seed: 42,
            target_conns: 10_000,
            sim_secs: 4,
            epoch_ms: 250,
            storm_factor: 10.0,
            workers: 1,
        };
        let b = run_with(params, true);
        assert_eq!(b.report.pcc_violations, 0);
        assert_eq!(b.fit.clusters, 5);
        assert!(b.report.bytes_per_conn <= 64.0);
        let json = b.to_json();
        for key in [
            "\"bench\": \"fleet\"",
            "\"smoke\": true",
            "\"pcc_violations\": 0",
            "\"sram_fit\"",
            "\"digest\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn committed_profiles_are_paper_shaped() {
        // The full profile must satisfy the acceptance gate's shape
        // (without running it here): 100 clusters, >= 2 M target.
        let full = fleet_params(false);
        let specs = synthesize_fleet(full.fleet);
        assert_eq!(specs.len(), 100);
        assert!(full.target_conns >= 2_000_000);
        let smoke = fleet_params(true);
        assert_eq!(synthesize_fleet(smoke.fleet).len(), 100);
        assert!(smoke.target_conns < full.target_conns);
        assert!(smoke.sim_secs < full.sim_secs);
    }
}

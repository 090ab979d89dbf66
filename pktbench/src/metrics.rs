//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! at the repository root lists the same names and units; a test keeps
//! the two in step.

/// End-to-end metrics (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("pkts_per_cpu_s", "1/s"),
    ("setups_per_cpu_s", "1/s"),
    ("lat_p50_us", "us"),
    ("ok_frac", "ratio"),
    ("sram_bytes_per_conn", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`).
///
/// `lat_p99_us` is here rather than end to end: one stall of the host
/// (steal, a descheduled worker) backs the open loop up for milliseconds,
/// so it does not repeat from run to run on a shared host. The wall-clock
/// rates are here for the same reason: every engine call is a round trip
/// between the caller and its worker, so they follow the host's
/// scheduling as much as the program.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("lat_p99_us", "us"),
    ("wall.pps", "1/s"),
    ("wall.setups_per_s", "1/s"),
    ("wire.parse_ns_per_pkt", "ns"),
    ("wire.rewrite_ns_per_pkt", "ns"),
    ("wire.bytes_out_per_pkt", "B"),
    ("engine.batch_ns_per_pkt", "ns"),
    ("engine.handoff_ns_per_pkt", "ns"),
    ("engine.advance_ns_per_call", "ns"),
    ("engine.control_ns_per_op", "ns"),
    ("hash.ns_per_pkt", "ns"),
    ("conn_table.lookup_ns", "ns"),
    ("conn_table.hit_ratio", "ratio"),
    ("conn_table.install_ns", "ns"),
    ("conn_table.relocations", "count"),
    ("conn_table.false_hits", "count"),
    ("conn_table.overflows", "count"),
    ("conn_table.entries", "count"),
    ("conn_table.bytes", "B"),
    ("vip_table.miss_ratio", "ratio"),
    ("vip_table.lookup_ns", "ns"),
    ("version.allocs", "count"),
    ("version.reuses", "count"),
    ("version.live", "count"),
    ("version.exhaustions", "count"),
    ("fallback.entries", "count"),
    ("transit.records", "count"),
    ("transit.checks", "count"),
    ("transit.hit_ratio", "ratio"),
    ("transit.check_ns", "ns"),
    ("transit.syn_redirects", "count"),
    ("learn.accepted", "count"),
    ("learn.overflow_drops", "count"),
    ("learn.useful_ratio", "ratio"),
    ("learn.filter_ns", "ns"),
    ("cpu.installs", "count"),
    ("cpu.install_ns", "ns"),
    ("update.requested", "count"),
    ("update.completed", "count"),
    ("update.queued", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.build_s", "s"),
    ("host.steal_frac", "ratio"),
    ("host.cpu_busy_cores", "cores"),
    ("host.cpu_ns_per_pkt", "ns"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.pps", "1/s"),
    ("trace.spans", "count"),
];

/// One reported value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Metrics of one run, in the order of the lists above.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Set `name` (which must be listed) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric { name, unit, value }),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics of `list`, in its order (missing ones are skipped).
    pub fn select(&self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        list.iter()
            .filter_map(|(n, _)| self.0.iter().find(|m| m.name == *n).cloned())
            .collect()
    }
}

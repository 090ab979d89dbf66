//! `pktbench` — the SilkRoad load balancer measured packet in, packet out.
//!
//! A run builds one workload from its seed (frames and a step schedule,
//! [`workload`]), sets up an engine to the workload's starting state, and
//! drives steps through the public entry points ([`lane`]):
//! `sr_wire::parse_frame`, `MultiPipeSwitch::process_batch_into` on the
//! threaded engine with one pipe worker, `close_connection` /
//! `request_update` / `advance`, and `sr_wire::rewrite_frame`.
//!
//! The timed window alternates closed-loop slices (`pkts_per_cpu_s`,
//! `setups_per_cpu_s`: rates per second of process CPU time, see [`host`])
//! with open-loop segments at a fixed offered rate (`lat_p50_us`,
//! `lat_p99_us`). A traced run (`--trace 1`) adds a window with a span
//! around every layer call and prices single calls with shadow replays
//! ([`shadow`]).
//!
//! Correctness gate: an untimed replay of the same steps on the inline
//! backend must fold to the same decision digest, every rewritten frame
//! must pass `sr_wire::verify_checksums`, no flow may leave its first DIP
//! (PCC), and the learning filter must shed no setup.

// Reading the wall clock is what a benchmark is for; the repository's
// clippy configuration bans it in model code.
#![allow(clippy::disallowed_methods)]

pub mod host;
pub mod lane;
pub mod metrics;
pub mod plan;
pub mod shadow;
pub mod trace;
pub mod workload;

use lane::{Hooks, Lane, Layer, NoHooks};
use metrics::Metrics;
use silkroad::{ForwardDecision, MultiPipeSwitch, SwitchStats};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload.
    pub workload: Kind,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured windows together, seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Shrink every size (the benchmark's own tests).
    pub smoke: bool,
    /// Flip a bit of the timed digest before the gate compares it.
    pub corrupt_digest: bool,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Why a run failed its correctness gate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Parse, rewrite and missing-DIP failures of the reference replay.
    pub fails: lane::Fails,
    /// Rewritten frames whose checksums do not verify.
    pub checksum: u64,
    /// Packets sent to another DIP than their flow's first.
    pub pcc: u64,
    /// Setups the learning filter shed.
    pub learn_overflow: u64,
    /// Whether the timed digest differs from the reference replay's.
    pub digest_mismatch: bool,
}

impl Failures {
    /// Failed packets.
    pub fn packets(&self) -> u64 {
        let f = &self.fails;
        f.parse + f.rewrite + f.no_dip + self.checksum + self.pcc + self.learn_overflow
    }
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Whether every gate passed.
    pub correct: bool,
    /// Packets offered in the measured windows.
    pub attempted: u64,
    /// Failed packets among them.
    pub failed: u64,
    /// What failed.
    pub failures: Failures,
    /// Every metric measured.
    pub metrics: Metrics,
    /// Human-readable context (host noise, sizes), one line each.
    pub notes: Vec<String>,
}

fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let i = ((v.len() - 1) as f64 * q).round() as usize;
    v[i]
}

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Set-ups timed per untraced run; `setup_s` is the median process CPU
/// time of the calm ones.
const SETUP_REPS: usize = 5;

/// The untraced window alternates two closed-loop slices with one
/// open-loop segment this many times; rates are the median calm slice's.
const SEGMENTS: usize = 10;

/// Host steal up to which a slice, open-loop segment or set-up counts as
/// undisturbed: two or three `/proc/stat` ticks of a half-second slice on
/// two CPUs.
const CALM_STEAL: f64 = 0.025;

/// Indices of the samples the host disturbed least: every one whose steal
/// is at most [`CALM_STEAL`], or if fewer, the `min` least stolen (earlier
/// first among equals). Every call into the engine is a round trip between
/// the caller and its worker, so a stolen vCPU stalls both and wall-clock
/// samples lose far more than the steal's share of time. Process CPU time
/// leaves stolen time out, but not what the tenant that took the CPU did
/// to the caches: rates per CPU-second in stolen slices still ran 10–15%
/// low.
fn calm(steal: &[f64], min: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let n = idx.iter().filter(|&&i| steal[i] <= CALM_STEAL).count();
    idx.truncate(n.max(min).min(steal.len()));
    idx
}

/// `v` rounded to three decimals, for the notes.
fn thousandths(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1e3).round() / 1e3).collect()
}

/// `v[i]` for every `i` in `idx`.
fn pick(v: &[f64], idx: &[usize]) -> Vec<f64> {
    idx.iter().map(|&i| v[i]).collect()
}

/// Engine counters read at a window boundary.
struct Counters {
    stats: SwitchStats,
    transit: (u64, u64, u64, usize),
    /// Summed over VIPs: allocations, reuses, live versions.
    versions: (u64, u64, u64),
}

impl Counters {
    fn read(sw: &mut MultiPipeSwitch) -> Counters {
        let mut versions = (0, 0, 0);
        for v in 0..plan::VIPS {
            if let Some((a, r, _, live)) = sw.version_counters(plan::vip(v)) {
                versions.0 += a;
                versions.1 += r;
                versions.2 += live as u64;
            }
        }
        Counters {
            stats: sw.stats(),
            transit: sw.transit_counters(),
            versions,
        }
    }
}

/// The reference replay's hooks: PCC and checksum checks, plus the
/// inline engine's time over the traced steps.
struct Verifier {
    first_dip: Vec<u32>,
    pcc: u64,
    checksum: u64,
    traced: std::ops::Range<u64>,
    engine_ns: u64,
}

impl Hooks for Verifier {
    const TRACED: bool = true;

    fn span(&mut self, layer: Layer, step: u64, t0: Instant, t1: Instant) {
        if layer == Layer::Engine && self.traced.contains(&step) {
            self.engine_ns += t1.duration_since(t0).as_nanos() as u64;
        }
    }

    fn rewritten(&mut self, out: &[u8]) {
        if sr_wire::verify_checksums(out).is_err() {
            self.checksum += 1;
        }
    }

    fn decided(&mut self, flow: u32, d: &ForwardDecision, fin: bool) {
        let code = lane::dip_code(d);
        if let Some(first) = self.first_dip.get_mut(flow as usize) {
            if code != 0 {
                if *first == 0 {
                    *first = code;
                } else if *first != code {
                    self.pcc += 1;
                }
            }
            if fin {
                *first = 0;
            }
        }
    }
}

fn learn_drops(sw: &MultiPipeSwitch) -> u64 {
    sw.pipe(0).map_or(0, |p| p.switch().learn_overflow_drops())
}

/// Run steps from `*s` until `secs` have passed; packets per second.
fn closed_loop<H: Hooks>(
    w: &Workload,
    sw: &mut MultiPipeSwitch,
    lane: &mut Lane,
    s: &mut u64,
    secs: f64,
    h: &mut H,
) -> f64 {
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let p0 = lane.packets;
    loop {
        lane.step(w, sw, *s, h);
        *s += 1;
        if Instant::now() >= end {
            break;
        }
    }
    (lane.packets - p0) as f64 / t0.elapsed().as_secs_f64()
}

/// Notes when a step's frames are all out.
struct Forwarded(Option<Instant>);

impl Hooks for Forwarded {
    fn forwarded(&mut self) {
        self.0 = Some(Instant::now());
    }
}

/// Run steps from `*s` for `secs` at `rate` packets per second offered,
/// each step due when its first packet is. A step's latency runs from when
/// it was due until its last frame is rewritten; the control operations
/// after it count only through the delay they impose on later steps.
/// Latencies and generator lateness go to `lat` and `lag`, in
/// microseconds.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    w: &Workload,
    sw: &mut MultiPipeSwitch,
    lane: &mut Lane,
    s: &mut u64,
    secs: f64,
    rate: f64,
    lat: &mut Vec<f64>,
    lag: &mut Vec<f64>,
) {
    let t0 = Instant::now();
    let mut offered = 0u64;
    loop {
        let due_s = offered as f64 / rate;
        // A host too slow for the offered rate would stretch the segment
        // without bound; three times its length is the most it may take.
        if due_s >= secs || t0.elapsed().as_secs_f64() >= 3.0 * secs {
            break;
        }
        let due = t0 + Duration::from_secs_f64(due_s);
        let mut now = Instant::now();
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        lag.push(now.duration_since(due).as_secs_f64() * 1e6);
        offered += w.frames(*s).len() as u64;
        let mut out = Forwarded(None);
        lane.step(w, sw, *s, &mut out);
        *s += 1;
        let done = out.0.expect("every step forwards its batch");
        lat.push(done.duration_since(due).as_secs_f64() * 1e6);
    }
}

/// Run one benchmark.
pub fn run(o: &Options) -> Outcome {
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    let t = Instant::now();
    let w = Workload::build(o.workload, o.seed, o.smoke);
    m.set("loadgen.build_s", t.elapsed().as_secs_f64());
    let cfg = plan::config(w.shape.conns());
    notes.push(format!(
        "workload {} seed {}: {} frames ({} MiB), {} packets per schedule period, {} established",
        w.kind.name(),
        w.seed,
        w.pool.len(),
        w.pool.bytes() >> 20,
        w.period_packets(),
        w.shape.established
    ));

    // Set-up, timed `SETUP_REPS` times; the last engine runs the windows.
    let reps = if o.trace || o.smoke { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut setup_cpu_s = Vec::with_capacity(reps);
    let mut setup_steal = Vec::with_capacity(reps);
    let mut prewarm_rate = Vec::with_capacity(reps);
    let mut prewarm_cpu_rate = Vec::with_capacity(reps);
    let mut engine = None;
    let mut start = 0;
    for _ in 0..reps {
        drop(engine.take());
        let h0 = host::Sample::now();
        let mut sw = MultiPipeSwitch::new(cfg.clone(), 1);
        start = w.setup(&mut sw, &mut |_, _, _| {});
        let win = h0.until(&host::Sample::now());
        let installs = sw.stats().installs as f64;
        setup_s.push(win.wall_s);
        setup_cpu_s.push(win.cpu_s);
        setup_steal.push(win.steal_frac());
        prewarm_rate.push(installs / win.wall_s);
        prewarm_cpu_rate.push(installs / win.cpu_s);
        engine = Some(sw);
    }
    let mut sw = engine.expect("at least one set-up");
    let calm_setups = calm(&setup_steal, reps.div_ceil(2));
    notes.push(format!(
        "set-up: {:?} s wall, {:?} s process CPU, steal {:?}; {} calm",
        thousandths(&setup_s),
        thousandths(&setup_cpu_s),
        thousandths(&setup_steal),
        calm_setups.len()
    ));
    m.set("setup_s", median(&mut pick(&setup_cpu_s, &calm_setups)));

    let (closed_s, open_s, traced_s) = if o.trace {
        (0.3 * o.seconds, 0.2 * o.seconds, 0.5 * o.seconds)
    } else {
        (0.6 * o.seconds, 0.4 * o.seconds, 0.0)
    };
    let mut lane = Lane::default();
    let mut s = start;

    // The untraced window alternates closed-loop slices with open-loop
    // segments, so a burst of host noise hits a few samples of each
    // metric rather than all of one.
    let rate = w.shape.open_rate_pps;
    let mut slice_pps = Vec::with_capacity(2 * SEGMENTS);
    let mut slice_steal = Vec::with_capacity(2 * SEGMENTS);
    let mut slice_setups = Vec::with_capacity(2 * SEGMENTS);
    let mut slice_cpu_pps = Vec::with_capacity(2 * SEGMENTS);
    let mut slice_cpu_setups = Vec::with_capacity(2 * SEGMENTS);
    let mut lat = Vec::new();
    let mut lag = Vec::new();
    // Per open-loop segment: its first latency sample and its steal.
    let mut seg_start = Vec::with_capacity(SEGMENTS + 1);
    let mut seg_steal = Vec::with_capacity(SEGMENTS);
    let mut closed = host::Window::default();
    let mut closed_packets = 0;
    let host0 = host::Sample::now();
    for _ in 0..SEGMENTS {
        for _ in 0..2 {
            let (installs, p0, h0) = (sw.stats().installs, lane.packets, host::Sample::now());
            let pps = closed_loop(
                &w,
                &mut sw,
                &mut lane,
                &mut s,
                closed_s / (2 * SEGMENTS) as f64,
                &mut NoHooks,
            );
            let win = h0.until(&host::Sample::now());
            let (packets, installs) = (lane.packets - p0, sw.stats().installs - installs);
            slice_pps.push(pps);
            slice_steal.push(win.steal_frac());
            slice_setups.push(installs as f64 / win.wall_s);
            slice_cpu_pps.push(packets as f64 / win.cpu_s);
            slice_cpu_setups.push(installs as f64 / win.cpu_s);
            closed.add(&win);
            closed_packets += packets;
        }
        seg_start.push(lat.len());
        let h0 = host::Sample::now();
        open_loop(
            &w,
            &mut sw,
            &mut lane,
            &mut s,
            open_s / SEGMENTS as f64,
            rate,
            &mut lat,
            &mut lag,
        );
        seg_steal.push(h0.until(&host::Sample::now()).steal_frac());
    }
    seg_start.push(lat.len());
    let whole = host0.until(&host::Sample::now());
    // Rates come from the calm slices, latencies from the calm segments.
    let calm_slices = calm(&slice_steal, SEGMENTS / 2);
    let calm_segs = calm(&seg_steal, SEGMENTS / 4);
    let (mut calm_lat, mut calm_lag) = (Vec::new(), Vec::new());
    for &k in &calm_segs {
        let r = seg_start[k]..seg_start[k + 1];
        calm_lat.extend_from_slice(&lat[r.clone()]);
        calm_lag.extend_from_slice(&lag[r]);
    }
    notes.push(format!(
        "closed loop: {closed_packets} packets, {:.3} s wall, {:.3} s process CPU; slice pps {:?}; per CPU-second {:?}; slice steal {:?}",
        closed.wall_s,
        closed.cpu_s,
        slice_pps.iter().map(|p| p.round()).collect::<Vec<_>>(),
        slice_cpu_pps.iter().map(|p| p.round()).collect::<Vec<_>>(),
        thousandths(&slice_steal)
    ));
    let seg_p50: Vec<f64> = (0..SEGMENTS)
        .map(|k| median(&mut lat[seg_start[k]..seg_start[k + 1]].to_vec()).round())
        .collect();
    notes.push(format!(
        "open loop: segment median latency {seg_p50:?} us; segment steal {:?}",
        thousandths(&seg_steal)
    ));
    notes.push(format!(
        "calm: {} of {} closed-loop slices, {} of {} open-loop segments (steal at most {CALM_STEAL})",
        calm_slices.len(),
        slice_steal.len(),
        calm_segs.len(),
        seg_steal.len()
    ));
    notes.push(format!(
        "host: {:.3} s wall, {:.2} s process CPU, steal {:.4} over the window; {} latency samples at {:.0} pps offered",
        whole.wall_s,
        whole.cpu_s,
        whole.steal_frac(),
        lat.len(),
        rate
    ));
    let cpu_pps = median(&mut pick(&slice_cpu_pps, &calm_slices));
    m.set("pkts_per_cpu_s", cpu_pps);
    m.set("wall.pps", median(&mut pick(&slice_pps, &calm_slices)));
    // No connection is set up inside a `steady` window by design: its
    // set-up rates are the pre-warm population's.
    if w.shape.births > 0 {
        m.set(
            "setups_per_cpu_s",
            median(&mut pick(&slice_cpu_setups, &calm_slices)),
        );
        m.set(
            "wall.setups_per_s",
            median(&mut pick(&slice_setups, &calm_slices)),
        );
    } else {
        m.set(
            "setups_per_cpu_s",
            median(&mut pick(&prewarm_cpu_rate, &calm_setups)),
        );
        m.set(
            "wall.setups_per_s",
            median(&mut pick(&prewarm_rate, &calm_setups)),
        );
    }
    m.set("lat_p50_us", median(&mut calm_lat));
    m.set("lat_p99_us", quantile(&mut calm_lat, 0.99));
    m.set("loadgen.lag_p99_us", quantile(&mut calm_lag, 0.99));
    m.set("host.steal_frac", whole.steal_frac());
    m.set("host.cpu_busy_cores", closed.cpu_s / closed.wall_s);
    m.set(
        "host.cpu_ns_per_pkt",
        closed.cpu_s * 1e9 / closed_packets.max(1) as f64,
    );

    let mem = sw.memory();
    let conns = sw.conn_count();
    m.set(
        "sram_bytes_per_conn",
        mem.total() as f64 / conns.max(1) as f64,
    );

    // The traced window.
    let traced_from = s;
    let mut traced_engine_ns = 0u64;
    let mut traced_packets = 0u64;
    if o.trace {
        let c0 = Counters::read(&mut sw);
        let (p0, b0, ctl0) = (lane.packets, lane.bytes_out, lane.control_ops);
        let mut rec = trace::Recorder::new(1 << 16);
        let h0 = host::Sample::now();
        let t0 = Instant::now();
        let traced_pps = closed_loop(&w, &mut sw, &mut lane, &mut s, traced_s, &mut rec);
        let window_ns = t0.elapsed().as_nanos() as f64;
        let traced_cpu_s = h0.until(&host::Sample::now()).cpu_s;
        let c1 = Counters::read(&mut sw);
        let mem = sw.memory();
        let entries = sw.conn_count();
        traced_packets = lane.packets - p0;
        let pkts = traced_packets.max(1) as f64;
        let (self_ns, count) = rec.self_times();
        let ns = |l: Layer| self_ns[l as usize] as f64;
        traced_engine_ns = self_ns[Layer::Engine as usize];
        let d = |f: fn(&SwitchStats) -> u64| f(&c1.stats) - f(&c0.stats);
        m.set("trace.pps", traced_pps);
        m.set("trace.overhead", cpu_pps * traced_cpu_s / pkts - 1.0);
        m.set("trace.coverage", rec.top_level_ns() as f64 / window_ns);
        m.set("trace.spans", rec.spans.len() as f64);
        m.set("wire.parse_ns_per_pkt", ns(Layer::Parse) / pkts);
        m.set("wire.rewrite_ns_per_pkt", ns(Layer::Rewrite) / pkts);
        m.set(
            "wire.bytes_out_per_pkt",
            (lane.bytes_out - b0) as f64 / pkts,
        );
        m.set("engine.batch_ns_per_pkt", ns(Layer::Engine) / pkts);
        m.set(
            "engine.advance_ns_per_call",
            ns(Layer::Advance) / count[Layer::Advance as usize].max(1) as f64,
        );
        m.set(
            "engine.control_ns_per_op",
            ns(Layer::Control) / (lane.control_ops - ctl0).max(1) as f64,
        );
        let packets = d(|s| s.packets);
        m.set(
            "conn_table.hit_ratio",
            ratio(d(|s| s.conn_table_hits), packets),
        );
        m.set("conn_table.relocations", d(|s| s.relocations) as f64);
        m.set("conn_table.false_hits", d(|s| s.digest_false_hits) as f64);
        m.set("conn_table.overflows", d(|s| s.conn_table_overflows) as f64);
        m.set("conn_table.entries", entries as f64);
        m.set("conn_table.bytes", mem.conn_table as f64);
        m.set(
            "vip_table.miss_ratio",
            ratio(d(|s| s.vip_table_misses), packets),
        );
        m.set("version.allocs", (c1.versions.0 - c0.versions.0) as f64);
        m.set("version.reuses", (c1.versions.1 - c0.versions.1) as f64);
        m.set("version.live", c1.versions.2 as f64);
        m.set("version.exhaustions", d(|s| s.version_exhaustions) as f64);
        m.set("fallback.entries", c1.stats.fallback_entries as f64);
        let checks = c1.transit.1 - c0.transit.1;
        m.set("transit.records", (c1.transit.0 - c0.transit.0) as f64);
        m.set("transit.checks", checks as f64);
        m.set(
            "transit.hit_ratio",
            ratio(c1.transit.2 - c0.transit.2, checks),
        );
        m.set(
            "transit.syn_redirects",
            d(|s| s.transit_syn_redirects) as f64,
        );
        let (learns, installs) = (d(|s| s.learns), d(|s| s.installs));
        m.set("learn.accepted", learns as f64);
        m.set("learn.useful_ratio", ratio(installs, learns));
        m.set("cpu.installs", installs as f64);
        m.set(
            "cpu.install_ns",
            if installs == 0 {
                0.0
            } else {
                ns(Layer::Advance) / installs as f64
            },
        );
        m.set("update.requested", d(|s| s.updates_requested) as f64);
        m.set("update.completed", d(|s| s.updates_completed) as f64);
        m.set("update.queued", d(|s| s.updates_queued) as f64);
        if let Some(path) = &o.trace_out {
            match rec.write(path) {
                Ok(()) => notes.push(format!("spans written to {}", path.display())),
                Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
            }
        }
    }
    let traced = traced_from..s;
    // Join the pipe worker before anything else runs.
    drop(sw);

    if o.trace {
        let c = shadow::replay(&w, if o.smoke { 10_000 } else { 1 << 20 });
        m.set("hash.ns_per_pkt", c.hash_ns);
        m.set("conn_table.lookup_ns", c.lookup_ns);
        m.set("conn_table.install_ns", c.install_ns);
        m.set("vip_table.lookup_ns", c.vip_lookup_ns);
        m.set("transit.check_ns", c.transit_check_ns);
        m.set("learn.filter_ns", c.learn_ns);
    }

    // Reference replay of the same set-up and steps on the inline backend.
    let mut v = Verifier {
        first_dip: vec![0; w.flows as usize],
        pcc: 0,
        checksum: 0,
        traced: traced.clone(),
        engine_ns: 0,
    };
    let mut rsw = MultiPipeSwitch::inline(cfg, 1);
    let rstart = w.setup(&mut rsw, &mut |f, p, d| v.decided(f, d, p.flags.is_fin()));
    assert_eq!(rstart, start, "set-up is deterministic");
    let mut rlane = Lane::default();
    let mut traced_drops = 0;
    for step in start..s {
        if step == traced.start {
            traced_drops = learn_drops(&rsw);
        }
        rlane.step(&w, &mut rsw, step, &mut v);
    }
    let drops = learn_drops(&rsw);
    let false_hits = rsw.stats().digest_false_hits;
    if o.trace {
        m.set(
            "learn.overflow_drops",
            (learn_drops(&rsw) - traced_drops) as f64,
        );
        m.set(
            "engine.handoff_ns_per_pkt",
            (traced_engine_ns as f64 - v.engine_ns as f64) / traced_packets.max(1) as f64,
        );
    }
    drop(rsw);

    let digest = if o.corrupt_digest {
        lane.digest ^ 1
    } else {
        lane.digest
    };
    let failures = Failures {
        fails: rlane.fails,
        checksum: v.checksum,
        pcc: v.pcc,
        learn_overflow: drops,
        digest_mismatch: digest != rlane.digest
            || lane.packets != rlane.packets
            || lane.fails != rlane.fails,
    };
    let attempted = lane.packets;
    let failed = failures.packets().min(attempted);
    m.set("ok_frac", 1.0 - ratio(failed, attempted));
    m.set("peak_rss_mb", host::peak_rss_mb());
    notes.push(format!(
        "gate: digest {:016x} timed vs {:016x} reference over {} steps, {} digest false hits; {:?}",
        digest,
        rlane.digest,
        s - start,
        false_hits,
        failures
    ));
    Outcome {
        correct: !failures.digest_mismatch && failures.packets() == 0,
        attempted,
        failed,
        failures,
        metrics: m,
        notes,
    }
}

/// The result line: one JSON object with the metrics of `list`.
pub fn result_json(out: &Outcome, list: &[(&'static str, &'static str)]) -> String {
    let metrics: Vec<String> = out
        .metrics
        .select(list)
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::calm;

    #[test]
    fn calm_keeps_every_undisturbed_sample_or_the_least_stolen_few() {
        // Quiet host: every sample counts.
        assert_eq!(calm(&[0.0, 0.011, 0.0, 0.022], 2), vec![0, 2, 1, 3]);
        // A burst of steal on two samples: they drop out.
        assert_eq!(calm(&[0.0, 0.3, 0.2, 0.01], 2), vec![0, 3]);
        // Steal everywhere: the `min` least stolen, earlier first.
        assert_eq!(calm(&[0.1, 0.05, 0.3, 0.05], 2), vec![1, 3]);
        assert_eq!(calm(&[0.1], 3), vec![0]);
    }
}

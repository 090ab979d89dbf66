//! Stress tests for the run-to-completion engine (threaded backend):
//! control-plane churn concurrent with streamed traffic must not perturb
//! decisions, posted control ops must leave the engine indistinguishable
//! from the inline backend, and shutdown must be clean no matter how
//! many batches or posted ops are still in flight.
//!
//! The decision-identity tests rely on the engine's determinism argument:
//! the SPSC job rings are FIFO and the facade publishes control ops and
//! dispatches batches in program order, so every worker observes the same
//! op/batch interleaving regardless of pipe count or backend. The
//! commutative stream digest then has to be bit-identical everywhere —
//! one 64-bit value summarizing every DIP, path, and version choice.

use proptest::prelude::*;
use silkroad::{
    EngineOptions, ForwardDecision, HealthEvent, MultiPipeSwitch, PoolUpdate, SilkRoadConfig,
    StreamStats, SwitchStats, UpdatePhase,
};
use sr_asic::MeterConfig;
use sr_types::{Addr, Dip, Duration, FiveTuple, Nanos, PacketMeta, PoolVersion, TypeError, Vip};

const FLOWS: u32 = 2_048;
const BATCH: usize = 192; // deliberately not a divisor of FLOWS

fn cfg() -> SilkRoadConfig {
    SilkRoadConfig {
        conn_capacity: 8_192,
        digest_bits: 24,
        transit_bytes: 4_096,
        ..Default::default()
    }
}

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn dips() -> Vec<Dip> {
    (1..=8).map(|i| Dip(Addr::v4(10, 0, 0, i, 20))).collect()
}

fn conn(i: u32) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, i, 1024 + (i % 13) as u16), vip().0)
}

fn build(pipes: usize, threaded: bool) -> MultiPipeSwitch {
    let mut sw = MultiPipeSwitch::with_options(
        cfg(),
        pipes,
        EngineOptions {
            threaded,
            ..EngineOptions::default()
        },
    );
    sw.add_vip(vip(), dips()).unwrap();
    sw
}

/// One fixed script: streamed steady-state traffic with VIP flips, a
/// 3-step PCC pool update, health events, and idle expiry landing
/// *between* streamed batches (the only place control ops can land — the
/// facade pumps in-flight completions while each op propagates).
fn churn_script(sw: &mut MultiPipeSwitch) -> StreamStats {
    let aux_vip = Vip(Addr::v4(20, 0, 0, 2, 443));
    let aux_dips: Vec<Dip> = (1..=4).map(|i| Dip(Addr::v4(10, 0, 1, i, 20))).collect();

    // Establish all flows synchronously so the streamed window below is
    // pure steady state.
    let syns: Vec<PacketMeta> = (0..FLOWS).map(|i| PacketMeta::syn(conn(i))).collect();
    let mut now = Nanos::ZERO;
    for wave in syns.chunks(512) {
        sw.process_batch(wave, now);
        now = now.saturating_add(Duration::from_millis(10));
        sw.advance(now);
    }
    let data: Vec<PacketMeta> = syns
        .iter()
        .map(|p| PacketMeta::data(p.tuple, 800))
        .collect();

    // Streamed pass 1 with control churn landing mid-stream.
    let t = Nanos::from_secs(5);
    let chunks: Vec<&[PacketMeta]> = data.chunks(BATCH).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        sw.stream_batch(chunk, t);
        match i {
            1 => sw.add_vip(aux_vip, aux_dips.clone()).unwrap(),
            2 => sw
                .request_update(vip(), PoolUpdate::Remove(Dip(Addr::v4(10, 0, 0, 8, 20))), t)
                .unwrap(),
            3 => sw
                .apply_health_events(
                    &[
                        HealthEvent::Down(vip(), Dip(Addr::v4(10, 0, 0, 7, 20))),
                        HealthEvent::Up(aux_vip, Dip(Addr::v4(10, 0, 1, 9, 20))),
                    ],
                    t,
                )
                .unwrap(),
            5 => sw.advance(t.saturating_add(Duration::from_secs(5))),
            7 => {
                // Expiry mid-stream: nothing is idle long enough, so this
                // must be a deterministic no-op on every pipe count.
                assert_eq!(sw.expire_idle(t), 0);
            }
            8 => sw.remove_vip(aux_vip).unwrap(),
            _ => {}
        }
    }

    // Streamed pass 2 after the churn: flows must still resolve (PCC kept
    // them pinned through the pool update and health flips).
    let t2 = Nanos::from_secs(30);
    sw.advance(t2);
    for chunk in &chunks {
        sw.stream_batch(chunk, t2);
    }
    sw.stream_drain()
}

#[test]
fn control_churn_concurrent_with_streaming_keeps_decisions_identical() {
    let runs = [(1, false), (4, false), (1, true), (2, true), (4, true)];
    let mut stats: Vec<(usize, bool, StreamStats)> = Vec::new();
    for (pipes, threaded) in runs {
        let mut sw = build(pipes, threaded);
        stats.push((pipes, threaded, churn_script(&mut sw)));
    }
    let (p0, t0, base) = stats[0];
    assert_eq!(base.packets, 2 * FLOWS as u64);
    for (pipes, threaded, s) in &stats[1..] {
        assert_eq!(
            *s, base,
            "{pipes} pipes (threaded={threaded}) diverged from {p0} pipes (threaded={t0})"
        );
    }
}

#[test]
fn streamed_and_sync_traffic_interleave_identically_across_backends() {
    // process_packet/process_batch quiesce the target worker, so mixing
    // them with streaming is an ordering torture test: every sync call is
    // a barrier on one pipe while others may still hold staged batches.
    let mut digests = Vec::new();
    for (pipes, threaded) in [(1, false), (2, true), (4, true)] {
        let mut sw = build(pipes, threaded);
        let syns: Vec<PacketMeta> = (0..512).map(|i| PacketMeta::syn(conn(i))).collect();
        sw.process_batch(&syns, Nanos::ZERO);
        sw.advance(Nanos::from_secs(1));
        let data: Vec<PacketMeta> = syns
            .iter()
            .map(|p| PacketMeta::data(p.tuple, 800))
            .collect();
        let t = Nanos::from_secs(2);
        let mut sync_word = 0u64;
        for (i, chunk) in data.chunks(64).enumerate() {
            sw.stream_batch(chunk, t);
            if i % 3 == 0 {
                // A sync probe mid-stream: its decision feeds a separate
                // fold so backends must agree on it too.
                let d = sw.process_packet(&PacketMeta::data(conn(i as u32), 800), t);
                sync_word = sync_word
                    .wrapping_mul(0x100000001b3)
                    .wrapping_add(d.dip.map_or(0, |dip| u64::from(dip.0.port)));
            }
        }
        let streamed = sw.stream_drain();
        digests.push((pipes, threaded, streamed, sync_word));
    }
    let (_, _, base_stream, base_sync) = digests[0];
    for (pipes, threaded, s, sync) in &digests[1..] {
        assert_eq!(
            *s, base_stream,
            "{pipes} pipes (threaded={threaded}) stream fold diverged"
        );
        assert_eq!(
            *sync, base_sync,
            "{pipes} pipes (threaded={threaded}) sync probes diverged"
        );
    }
}

#[test]
fn shutdown_with_in_flight_batches_never_hangs_or_leaks_workers() {
    // Each engine counts its own workers, so engines that sibling tests
    // run in parallel in this process cannot show up as leaks here.
    fn drop_and_check(sw: MultiPipeSwitch, pipes: usize, what: &str) {
        let live = sw.live_workers();
        assert_eq!(live.count(), pipes, "{what}: workers not all running");
        drop(sw);
        let n = live.count();
        assert_eq!(n, 0, "{what}: {n} sr-pipe workers leaked");
    }

    let syns: Vec<PacketMeta> = (0..512).map(|i| PacketMeta::syn(conn(i))).collect();
    let data: Vec<PacketMeta> = syns
        .iter()
        .map(|p| PacketMeta::data(p.tuple, 800))
        .collect();
    for round in 0..24 {
        let pipes = [1, 2, 4][round % 3];
        let mut sw = build(pipes, true);
        sw.process_batch(&syns, Nanos::ZERO);
        let t = Nanos::from_secs(1);
        // Leave up to ring_depth batches in flight per pipe, plus staged
        // partial batches — then drop without draining.
        for chunk in data.chunks(96) {
            sw.stream_batch(chunk, t);
        }
        if round % 2 == 0 {
            // Half the rounds also post control ops behind the queued
            // batches. Posted ops return without waiting, so the workers
            // may still hold them, and `Adopt` nudges, at the drop.
            sw.advance(Nanos::from_secs(2));
            for p in syns.iter().take(64) {
                sw.close_connection(&p.tuple, Nanos::from_secs(2));
            }
        }
        drop_and_check(sw, pipes, &format!("round {round}"));
    }

    // Degenerate lifecycles: drop immediately after spawn, and drop with
    // zero traffic but a run of posted ops that no batch ever stamps.
    for pipes in [1, 2, 4] {
        drop_and_check(build(pipes, true), pipes, "idle engine");
        let mut sw = build(pipes, true);
        for i in 0..256 {
            sw.close_connection(&conn(i), Nanos::from_secs(1));
            sw.advance(Nanos::from_secs(1));
        }
        drop_and_check(sw, pipes, "posted ops only");
    }
}

/// Everything a script observed, for comparing backends.
#[derive(Debug, Default, PartialEq)]
struct Observed {
    decisions: Vec<ForwardDecision>,
    results: Vec<Result<(), TypeError>>,
    probes: Vec<(usize, Option<UpdatePhase>, Option<PoolVersion>)>,
    streamed: Vec<StreamStats>,
    stats: Option<SwitchStats>,
    conns: usize,
    versions: Option<(u64, u64, u64, usize)>,
}

impl Observed {
    fn finish(mut self, sw: &mut MultiPipeSwitch) -> Observed {
        self.streamed.push(sw.stream_drain());
        self.stats = Some(sw.stats());
        self.conns = sw.conn_count();
        self.versions = sw.version_counters(vip());
        self
    }
}

fn meter() -> MeterConfig {
    MeterConfig {
        cir_bps: 400_000,
        cbs: 4_000,
        eir_bps: 800_000,
        ebs: 8_000,
    }
}

/// Posted closes, advances and meter changes interleaved with every
/// other entry point: synchronous and streamed batches, single packets,
/// queries and pool updates.
fn posted_script(sw: &mut MultiPipeSwitch) -> Observed {
    let mut obs = Observed::default();
    let mut now = Nanos::ZERO;
    for round in 0..12u32 {
        let lo = round * 128;
        // Overlapping windows: half of each wave is already established.
        let syns: Vec<PacketMeta> = (lo..lo + 256).map(|i| PacketMeta::syn(conn(i))).collect();
        sw.process_batch_into(&syns, now, &mut obs.decisions);
        for i in (lo..lo + 256).step_by(3) {
            sw.close_connection(&conn(i), now);
        }
        now = now.saturating_add(Duration::from_millis(40));
        sw.advance(now);
        match round {
            2 => sw.attach_meter(vip(), meter()),
            7 => sw.detach_meter(vip()),
            _ => {}
        }
        let data: Vec<PacketMeta> = (lo.saturating_sub(128)..lo + 256)
            .map(|i| PacketMeta::data(conn(i), 800))
            .collect();
        for (k, chunk) in data.chunks(BATCH / 2).enumerate() {
            sw.stream_batch(chunk, now);
            sw.close_connection(&conn(lo + 7 * k as u32), now);
            if k == 1 {
                sw.advance(now);
            }
        }
        obs.decisions
            .push(sw.process_packet(&PacketMeta::data(conn(lo + 1), 800), now));
        let extra = Dip(Addr::v4(10, 0, 0, 9, 20));
        match round % 6 {
            1 => obs
                .results
                .push(sw.request_update(vip(), PoolUpdate::Add(extra), now)),
            4 => obs
                .results
                .push(sw.request_update(vip(), PoolUpdate::Remove(extra), now)),
            _ => {}
        }
        if round % 3 == 2 {
            obs.probes.push((
                sw.conn_count(),
                sw.update_phase(vip()),
                sw.current_version(vip()),
            ));
            obs.streamed.push(sw.stream_drain());
        }
    }
    obs.finish(sw)
}

#[test]
fn posted_ops_interleaved_with_every_entry_point_match_inline() {
    for pipes in [1, 2, 4] {
        let reference = posted_script(&mut build(pipes, false));
        assert!(reference.conns > 0 && reference.stats.as_ref().unwrap().installs > 0);
        let threaded = posted_script(&mut build(pipes, true));
        assert_eq!(
            threaded, reference,
            "{pipes} pipes: threaded diverged from inline"
        );
    }
}

/// Interpret one generated op against `sw`: `kind` picks the entry
/// point, `arg` its flow window or time step.
fn random_op(sw: &mut MultiPipeSwitch, obs: &mut Observed, now: &mut Nanos, kind: u8, arg: u32) {
    let lo = arg % 1_024;
    match kind {
        0 => {
            let syns: Vec<PacketMeta> = (lo..lo + 64).map(|i| PacketMeta::syn(conn(i))).collect();
            sw.process_batch_into(&syns, *now, &mut obs.decisions);
        }
        1 => {
            let data: Vec<PacketMeta> = (lo..lo + 96)
                .map(|i| PacketMeta::data(conn(i), 800))
                .collect();
            sw.stream_batch(&data, *now);
        }
        2 => obs
            .decisions
            .push(sw.process_packet(&PacketMeta::data(conn(lo), 800), *now)),
        3 => {
            for i in lo..lo + arg % 7 + 1 {
                sw.close_connection(&conn(i), *now);
            }
        }
        4 => {
            *now = now.saturating_add(Duration::from_millis(u64::from(arg % 50)));
            sw.advance(*now);
        }
        5 => {
            let dip = Dip(Addr::v4(10, 0, 0, 9 + (arg % 2) as u8, 20));
            let op = if arg % 4 < 2 {
                PoolUpdate::Add(dip)
            } else {
                PoolUpdate::Remove(dip)
            };
            obs.results.push(sw.request_update(vip(), op, *now));
        }
        6 => obs.probes.push((
            sw.conn_count(),
            sw.update_phase(vip()),
            sw.current_version(vip()),
        )),
        _ => match arg % 2 {
            0 => sw.attach_meter(vip(), meter()),
            _ => sw.detach_meter(vip()),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any sequence of entry-point calls gives the same decisions,
    /// outcomes and final state on the threaded engine as inline.
    #[test]
    fn random_op_sequences_match_inline(
        ops in proptest::collection::vec((0u8..8, any::<u32>()), 1..60),
    ) {
        let run = |threaded: bool| {
            let mut sw = build(2, threaded);
            let mut obs = Observed::default();
            let mut now = Nanos::ZERO;
            for &(kind, arg) in &ops {
                random_op(&mut sw, &mut obs, &mut now, kind, arg);
            }
            obs.finish(&mut sw)
        };
        prop_assert_eq!(run(true), run(false));
    }
}

#[test]
fn queries_are_consistent_while_streams_are_in_flight() {
    let mut sw = build(4, true);
    let syns: Vec<PacketMeta> = (0..FLOWS).map(|i| PacketMeta::syn(conn(i))).collect();
    sw.process_batch(&syns, Nanos::ZERO);
    sw.advance(Nanos::from_secs(1));
    let data: Vec<PacketMeta> = syns
        .iter()
        .map(|p| PacketMeta::data(p.tuple, 800))
        .collect();
    let t = Nanos::from_secs(2);
    for chunk in data.chunks(BATCH) {
        sw.stream_batch(chunk, t);
    }
    // Queries land after all published jobs (FIFO rings), so they see
    // every streamed packet dispatched so far once the workers catch up.
    assert_eq!(sw.conn_count(), FLOWS as usize);
    let stats = sw.stats();
    assert_eq!(stats.packets, 2 * u64::from(FLOWS));
    let drained = sw.stream_drain();
    assert_eq!(drained.packets, FLOWS as u64);
}

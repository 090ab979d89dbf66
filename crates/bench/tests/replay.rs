//! End-to-end check of the pcap replay path against the in-memory switch.
//!
//! The claim under test (ISSUE acceptance): replaying an exported capture
//! through `sr_bench::replay` — parse from raw bytes, steer, resolve,
//! rewrite — produces **bit-identical per-flow DIP choices** to a
//! `MultiPipeSwitch` fed the very same packet stream directly from the
//! trace exporter's callback, never touching the wire format. The only
//! shared inputs are the trace config and the batching discipline; the
//! pcap side additionally round-trips every packet through frame
//! synthesis, microsecond timestamp truncation, file bytes, and the
//! zero-copy parser.

use silkroad::{DataPath, ForwardDecision, MultiPipeSwitch, PoolUpdate, SilkRoadConfig};
use sr_bench::replay::{self, export_profile, DIPS_PER_VIP, EXPORT_DATA_PKTS};
use sr_types::{Addr, Nanos, PacketMeta, RewriteMode, Vip};
use sr_wire::{export_trace, PcapWriter};
use std::collections::{BTreeSet, HashMap};

const BATCH: usize = 1_024;

/// FNV-1a 64, mirroring the replay driver's digest recipe.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest_decision(fnv: &mut Fnv, d: &ForwardDecision) {
    fnv.write(&[match d.path {
        DataPath::AsicConnTable => 0,
        DataPath::AsicVipTable => 1,
        DataPath::SoftwareRedirect => 2,
        DataPath::Dropped => 3,
        DataPath::NotVip => 4,
    }]);
    if let Some(dip) = d.dip {
        let mut buf = [0u8; 18];
        let n = dip.0.encode_to(&mut buf, 0);
        fnv.write(&buf[..n]);
    }
    if let Some(v) = d.version {
        fnv.write(&v.0.to_be_bytes());
    }
    fnv.write(&[u8::from(d.conn_table_hit)]);
}

/// Export the smoke trace, capturing the exporter's own packet stream.
fn smoke_capture() -> (Vec<u8>, Vec<(Nanos, PacketMeta)>) {
    let mut metas = Vec::new();
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    export_trace(&export_profile(true), EXPORT_DATA_PKTS, &mut w, |ts, m| {
        // pcap timestamps round down to microseconds; the in-memory twin
        // must see the same clock the replay side reads back.
        metas.push((Nanos(ts.0 / 1_000 * 1_000), *m));
    })
    .unwrap();
    (w.finish().unwrap(), metas)
}

/// Run the exporter's packet stream through a switch configured exactly
/// like the replay driver's, with the same batching and the same
/// mid-capture DIP-pool update, collecting every decision.
fn in_memory_decisions(metas: &[(Nanos, PacketMeta)], pipes: usize) -> Vec<ForwardDecision> {
    let dsts: BTreeSet<Addr> = metas.iter().map(|(_, m)| m.tuple.dst).collect();
    let conns: BTreeSet<Vec<u8>> = metas.iter().map(|(_, m)| m.tuple.key_bytes()).collect();
    let cfg = SilkRoadConfig {
        conn_capacity: (conns.len() * 2).max(4_096),
        digest_bits: 24,
        transit_bytes: 4_096,
        ..Default::default()
    };
    let mut sw = MultiPipeSwitch::inline(cfg, pipes);
    let vips: Vec<(Vip, Addr)> = dsts.iter().map(|a| (Vip(*a), *a)).collect();
    for (i, (vip, addr)) in vips.iter().enumerate() {
        let dips = (0..DIPS_PER_VIP)
            .map(|d| sr_workload::trace::dip_addr(addr.family(), i as u32, d))
            .collect();
        sw.add_vip(*vip, dips).unwrap();
    }
    let update_at = metas.len() as u64 / 2;
    let update_vip = vips[0].0;
    let update_dip = sr_workload::trace::dip_addr(vips[0].1.family(), 0, 0);

    let mut out = Vec::new();
    let mut batch = Vec::with_capacity(BATCH);
    let mut injected = false;
    let mut i = 0usize;
    while i < metas.len() {
        let end = (i + BATCH).min(metas.len());
        let now = metas[i].0;
        if !injected && i as u64 >= update_at {
            sw.request_update(update_vip, PoolUpdate::Remove(update_dip), now)
                .unwrap();
            injected = true;
        }
        sw.advance(now);
        batch.clear();
        batch.extend(metas[i..end].iter().map(|(_, m)| *m));
        sw.process_batch_into(&batch, now, &mut out);
        i = end;
    }
    assert!(injected, "the mid-trace update must have fired");
    assert!(
        sw.stats().updates_completed >= 1,
        "the pool update must complete within the capture"
    );
    out
}

#[test]
fn pcap_replay_matches_in_memory_switch_bit_for_bit() {
    let (pcap, metas) = smoke_capture();
    let report = replay::replay(&pcap, 2, RewriteMode::Nat).unwrap();
    assert_eq!(report.frames as usize, metas.len());
    assert_eq!(report.parse_errors, 0);
    assert!(report.ok(), "{report:?}");

    let decisions = in_memory_decisions(&metas, 2);
    assert_eq!(decisions.len(), metas.len());
    let mut fnv = Fnv::new();
    for d in &decisions {
        digest_decision(&mut fnv, d);
    }
    assert_eq!(
        fnv.0, report.decision_digest,
        "wire-replayed decisions diverged from the in-memory switch"
    );
}

#[test]
fn pcc_holds_across_the_injected_pool_update() {
    let (pcap, metas) = smoke_capture();
    let report = replay::replay(&pcap, 2, RewriteMode::Nat).unwrap();
    assert_eq!(report.pcc_violations, 0);

    // Reconstruct the per-flow DIP history from the in-memory twin and
    // show the update was not vacuous: connections pinned to the removed
    // DIP before the update keep it afterwards, while the removed DIP
    // stops receiving *new* connections once the update completes.
    let decisions = in_memory_decisions(&metas, 2);
    let update_at = metas.len() / 2;
    let removed = sr_workload::trace::dip_addr(metas[0].1.tuple.dst.family(), 0, 0);
    let mut pinned: HashMap<Vec<u8>, (Addr, usize)> = HashMap::new();
    let mut survivors = 0u64;
    for (i, ((_, m), d)) in metas.iter().zip(&decisions).enumerate() {
        let Some(dip) = d.dip else { continue };
        match pinned.get(&m.tuple.key_bytes()) {
            None => {
                pinned.insert(m.tuple.key_bytes(), (dip.0, i));
            }
            Some(&(first, opened)) => {
                assert_eq!(first, dip.0, "PCC violation at frame {i}");
                if first == removed.0 && opened < update_at && i > update_at {
                    survivors += 1;
                }
            }
        }
    }
    assert!(
        survivors > 0,
        "no pre-update connection on the removed DIP survived past the \
         update — the PCC check never exercised a live migration window"
    );
}

#[test]
fn smoke_golden_digest_is_stable() {
    // The CI gate pins this digest (crates/bench/golden/replay_smoke.digest);
    // keep the in-tree copy honest so a drift shows up locally first.
    let (pcap, _) = smoke_capture();
    let report = replay::replay(&pcap, 2, RewriteMode::Nat).unwrap();
    let pinned = include_str!("../golden/replay_smoke.digest").trim();
    assert_eq!(
        format!("{:016x}", report.decision_digest),
        pinned,
        "smoke decision digest drifted — regenerate crates/bench/golden/ \
         (repro export + replay --smoke) if the change is intentional"
    );
}

//! Property-based tests for the algorithm zoo.
//!
//! The acceptance-critical property: CuCoTrack's fingerprint false
//! positives are **always audited, never silent**. A cuckoo-filter lookup
//! can alias two distinct 5-tuples onto one (bucket, fingerprint) pair;
//! when that happens the probe flow is honestly mis-steered — and the
//! audit oracle must count exactly those events.

use proptest::prelude::*;
use sr_algo::{ConnRecord, ConnState, CuckooFilterState, CucotrackLb, KeyHasher};
use sr_types::{Addr, AddrFamily, Dip, Duration, FiveTuple, Nanos, PacketMeta, PoolVersion, Vip};

fn vip() -> Vip {
    Vip(Addr::v4(20, 0, 0, 1, 80))
}

fn flow(g: u32, port: u16) -> FiveTuple {
    FiveTuple::tcp(Addr::v4_indexed(100, g, port), vip().0)
}

/// A test flow's key and packet-time hashes, hashed the way `AlgoEngine`
/// does for a 2-stage ConnState.
fn keyed(hasher: &KeyHasher, tuple: FiveTuple) -> (sr_types::TupleKey, sr_algo::ConnHashes) {
    let hashed = hasher.hash_tuple(&tuple);
    (*hashed.key(), hashed.conn_hashes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every inexact cuckoo-filter hit increments the collision audit:
    /// probing a dense filter with keys that were never inserted, the
    /// number of lookups that *return a record* equals the number of
    /// audited fingerprint collisions — no alias is ever served silently.
    #[test]
    fn cucotrack_fp_hits_are_always_audited(
        seed in any::<u64>(),
        resident in 24usize..64,
        probes in 256usize..1024,
    ) {
        let mut filter = CuckooFilterState::new(64, 8, 6, AddrFamily::V4, Duration::from_secs(60));
        let hasher = KeyHasher::family(seed, 2);
        let record = ConnRecord {
            vip: vip(),
            version: PoolVersion(0),
            dip: Dip(Addr::v4(10, 0, 0, 1, 20)),
            arrived: Nanos(0),
        };
        for g in 0..resident {
            let (key, hashes) = keyed(&hasher, flow(g as u32, 1024));
            // Dense filters may refuse inserts; only resident keys matter.
            let _ = filter.insert(&key, &hashes, record);
        }
        let before = filter.fp_collisions();
        let mut aliased = 0u64;
        for g in 0..probes {
            // Disjoint flow-group range: none of these were inserted.
            let (key, hashes) = keyed(&hasher, flow(1_000_000 + g as u32, 2048));
            if let Some(hit) = filter.lookup(&key, &hashes) {
                prop_assert!(!hit.exact, "never-inserted key cannot match exactly");
                aliased += 1;
            }
        }
        prop_assert_eq!(
            filter.fp_collisions() - before,
            aliased,
            "every aliased hit must be audited"
        );
    }

    /// Inserted keys always read back exactly (no false *negatives* while
    /// resident), and removal restores a clean miss.
    #[test]
    fn cucotrack_resident_keys_read_back_exactly(
        seed in any::<u64>(),
        groups_raw in prop::collection::vec(0u32..10_000, 1..24),
    ) {
        let groups: std::collections::BTreeSet<u32> = groups_raw.into_iter().collect();
        let mut filter =
            CuckooFilterState::new(256, 8, 6, AddrFamily::V4, Duration::from_secs(60));
        let hasher = KeyHasher::family(seed, 2);
        let record = ConnRecord {
            vip: vip(),
            version: PoolVersion(3),
            dip: Dip(Addr::v4(10, 0, 0, 2, 20)),
            arrived: Nanos(7),
        };
        let mut stored = Vec::new();
        for &g in &groups {
            let (key, hashes) = keyed(&hasher, flow(g, 443));
            if filter.insert(&key, &hashes, record).is_ok() {
                stored.push((key, hashes));
            }
        }
        for (key, hashes) in &stored {
            let hit = filter.lookup(key, hashes).expect("resident key must hit");
            prop_assert!(hit.exact);
            prop_assert_eq!(hit.record, record);
        }
        for (key, _) in &stored {
            prop_assert!(filter.remove(key).is_some());
        }
        prop_assert_eq!(filter.entries(), 0);
    }

    /// End-to-end through the engine: the `false_hits` stat equals the
    /// filter's audited collision count — the engine surfaces every
    /// mis-steer the filter detects.
    #[test]
    fn engine_false_hit_stat_matches_filter_audit(
        seed in any::<u64>(),
        probes in 128usize..512,
    ) {
        let mut e: CucotrackLb =
            sr_algo::cucotrack_lb(seed, AddrFamily::V4, 64, Duration::from_secs(60));
        prop_assert!(e.add_vip(vip(), &[Dip(Addr::v4(10, 0, 0, 1, 20))]));
        // Fill the tiny filter with long-lived flows.
        for g in 0..48u32 {
            e.process(&PacketMeta::syn(flow(g, 1024)), None, Nanos(0));
        }
        // Probe with data packets of never-seen flows: any conn-state hit
        // is a fingerprint alias.
        for g in 0..probes {
            e.process(
                &PacketMeta::data(flow(500_000 + g as u32, 2048), 100),
                None,
                Nanos(10),
            );
        }
        prop_assert_eq!(e.stats().false_hits, e.conn_state().fp_collisions());
    }
}

//! Shadow replays: each layer's public functions driven directly over the
//! workload's own keys, outside the engine, to price one call.
//!
//! The tables are built from the same `SilkRoadConfig` as the engine's, so
//! their geometry, hash families and digest widths match; the DIP-select
//! hash is any extra `HashFn` (its value does not change the cost).

use crate::plan::{self, Space};
use crate::workload::Workload;
use silkroad::conn_table::{ConnTable, ConnValue};
use silkroad::transit::TransitTable;
use silkroad::vip_table::VipTable;
use silkroad::{HashedKey, KeyHasher};
use sr_asic::LearningFilter;
use sr_hash::HashFn;
use sr_types::{FiveTuple, Nanos, PoolVersion};
use std::hint::black_box;
use std::time::Instant;

/// Nanoseconds per call of each replayed function.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShadowCosts {
    /// `KeyHasher::hash_tuple`.
    pub hash_ns: f64,
    /// `ConnTable::lookup_pre` on a table populated like the workload's.
    pub lookup_ns: f64,
    /// `ConnTable::lookup_pre` pre-check plus `install_vacant_pre`
    /// (`install_pre` after a digest collision).
    pub install_ns: f64,
    /// `VipTable::lookup`.
    pub vip_lookup_ns: f64,
    /// `TransitTable::check_hashed`.
    pub transit_check_ns: f64,
    /// `LearningFilter::learn`.
    pub learn_ns: f64,
}

/// Packets of the schedule the per-packet replays run over.
const STREAM: usize = 1 << 16;

/// Run `f` over `items` until at least `min_calls` calls were made;
/// nanoseconds per call.
fn per_call<T>(items: &[T], min_calls: usize, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let mut calls = 0usize;
    let t0 = Instant::now();
    while calls < min_calls {
        for it in items {
            f(it);
        }
        calls += items.len();
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

/// Replay every layer function over `w`'s keys.
pub fn replay(w: &Workload, min_calls: usize) -> ShadowCosts {
    let shape = &w.shape;
    let cfg = plan::config(shape.conns());
    // The packet stream: the schedule's first `STREAM` packets, as tuples.
    let stream: Vec<FiveTuple> = (0..u64::from(shape.period))
        .flat_map(|s| w.frames(s).iter().map(|&f| w.pool.meta[f as usize].tuple))
        .take(STREAM)
        .collect();
    // The keys the workload installs: its new flows, or for a workload
    // without births its established population.
    let births: Vec<FiveTuple> = if shape.births > 0 {
        (0..shape.births * shape.period)
            .map(|g| plan::flow(w.seed, Space::Churn, g).0)
            .collect()
    } else {
        (0..shape.established)
            .map(|i| plan::flow(w.seed, Space::Established, i).0)
            .collect()
    };

    let mut table = ConnTable::new(&cfg);
    let mut transit = TransitTable::new(cfg.transit_bytes, cfg.transit_hashes, cfg.seed, true);
    let hasher = KeyHasher::new(
        table.stage_fns(),
        table.match_fn(),
        HashFn::new(cfg.seed ^ 1),
        transit.hash_fns(),
    );

    let hash_ns = per_call(&stream, min_calls, |t| {
        black_box(hasher.hash_tuple(black_box(t)));
    });

    // Populate like the workload: the established population, then as
    // many new flows as the workload keeps alive at once; only the
    // installs of the workload's own install keys are timed.
    let v = ConnValue {
        vip: plan::vip(0),
        version: PoolVersion(0),
        dip: plan::dip(0, 0),
        arrived: Nanos::ZERO,
    };
    let install = |hk: &HashedKey, table: &mut ConnTable| {
        let key = hk.key().as_slice();
        if table
            .lookup_pre(key, hk.conn_stage_hashes(), hk.conn_match_hash())
            .is_none()
        {
            let _ = table.install_vacant_pre(key, hk.conn_stage_hashes(), hk.conn_match_hash(), v);
        } else {
            let _ = table.install_pre(key, hk.conn_stage_hashes(), hk.conn_match_hash(), v);
        }
    };
    if shape.births > 0 {
        for i in 0..shape.established {
            install(
                &hasher.hash_tuple(&plan::flow(w.seed, Space::Established, i).0),
                &mut table,
            );
        }
    }
    // Installs are timed once over the whole key set (a re-install would
    // only find the keys present), with the keys hashed before the clock
    // starts: `hash.ns_per_pkt` prices the hash.
    let live = births.len().min(cfg.conn_capacity / 2);
    let to_install: Vec<_> = births[..live]
        .iter()
        .map(|t| hasher.hash_tuple(t))
        .collect();
    let t0 = Instant::now();
    for hk in &to_install {
        install(hk, &mut table);
    }
    let install_ns = t0.elapsed().as_nanos() as f64 / live.max(1) as f64;

    let hashed: Vec<_> = stream.iter().map(|t| hasher.hash_tuple(t)).collect();
    let lookup_ns = per_call(&hashed, min_calls, |hk| {
        black_box(table.lookup_pre(
            hk.key().as_slice(),
            hk.conn_stage_hashes(),
            hk.conn_match_hash(),
        ));
    });

    let mut vips = VipTable::new();
    for v in 0..plan::VIPS {
        vips.insert(plan::vip(v), PoolVersion(0));
    }
    let vip_lookup_ns = per_call(&stream, min_calls, |t| {
        black_box(vips.lookup(black_box(&t.dst)));
    });

    // A TransitTable holding a few dozen pending connections, as during
    // one update's recording step.
    for hk in hashed.iter().take(64) {
        transit.record_hashed(hasher.bloom_hashes(hk.key()).as_slice());
    }
    let blooms: Vec<_> = hashed
        .iter()
        .map(|hk| hasher.bloom_hashes(hk.key()))
        .collect();
    let transit_check_ns = per_call(&blooms, min_calls, |b| {
        black_box(transit.check_hashed(b.as_slice()));
    });

    let mut filter: LearningFilter<()> = LearningFilter::new(cfg.learning);
    let keys: Vec<_> = births.iter().map(|t| t.tuple_key()).collect();
    let learn_ns = per_call(&keys, min_calls, |k| {
        if filter.len() >= cfg.learning.capacity {
            filter.drain_now();
        }
        black_box(filter.learn(k.as_slice(), (), Nanos::ZERO));
    });

    ShadowCosts {
        hash_ns,
        lookup_ns,
        install_ns,
        vip_lookup_ns,
        transit_check_ns,
        learn_ns,
    }
}

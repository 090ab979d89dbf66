//! Data-plane result types.
//!
//! The per-packet pipeline itself lives in [`crate::switch`] (it needs
//! mutable access to every table); this module defines what it returns.
//! The hash-once key pipeline it consumes ([`KeyHasher`]/[`HashedKey`]:
//! hash a packet's 5-tuple key exactly once and derive every table's hash
//! values from that single pass) is defined at the algorithm boundary
//! (`sr-algo`), shared by every zoo member, and re-exported here.

use sr_types::{Dip, PoolVersion, RewriteMode, RewriteOp};

pub use sr_algo::{
    BloomHashes, ConnHashes, HashedKey, KeyHasher, MAX_BLOOM_HASHES, MAX_PACKET_HASHES,
};

/// Which path a packet took through the switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataPath {
    /// Forwarded entirely in the ASIC via a ConnTable hit.
    AsicConnTable,
    /// Forwarded entirely in the ASIC via the VIPTable miss path (first
    /// packets and pending connections).
    AsicVipTable,
    /// Redirected through switch software: a SYN that falsely hit an
    /// existing ConnTable entry (digest collision, §4.2) or falsely hit
    /// TransitTable in step 2 (§4.3). Repaired, then forwarded; costs the
    /// configured extra delay.
    SoftwareRedirect,
    /// Dropped: destination is a VIP with an empty pool.
    Dropped,
    /// Not VIP traffic: passed through to regular forwarding.
    NotVip,
}

/// Outcome of processing one packet. `Eq` so equivalence tests can compare
/// whole decision streams (e.g. multi-pipe vs single-pipe switches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForwardDecision {
    /// The chosen backend, if any.
    pub dip: Option<Dip>,
    /// Path taken.
    pub path: DataPath,
    /// The pool version used to resolve the DIP (None for `NotVip`/drops
    /// and for direct-DIP ConnTable hits).
    pub version: Option<PoolVersion>,
    /// Whether the decision came from a ConnTable hit.
    pub conn_table_hit: bool,
    /// Whether the ConnTable hit was a digest false positive (simulator
    /// visibility only — the ASIC cannot know).
    pub false_hit: bool,
}

impl ForwardDecision {
    /// A non-VIP passthrough decision.
    pub fn not_vip() -> ForwardDecision {
        ForwardDecision {
            dip: None,
            path: DataPath::NotVip,
            version: None,
            conn_table_hit: false,
            false_hit: false,
        }
    }

    /// A drop decision (empty pool).
    pub fn dropped() -> ForwardDecision {
        ForwardDecision {
            dip: None,
            path: DataPath::Dropped,
            version: None,
            conn_table_hit: false,
            false_hit: false,
        }
    }

    /// The wire-layer operation this decision asks of the rewrite engine:
    /// decisions that forward to a resolved DIP become a [`RewriteOp`]
    /// carried in `mode`; drops and non-VIP passthroughs touch nothing.
    #[inline]
    pub fn rewrite_op(&self, mode: RewriteMode) -> Option<RewriteOp> {
        match self.path {
            DataPath::AsicConnTable | DataPath::AsicVipTable | DataPath::SoftwareRedirect => {
                self.dip.map(|dip| RewriteOp { dip, mode })
            }
            DataPath::Dropped | DataPath::NotVip => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let n = ForwardDecision::not_vip();
        assert_eq!(n.path, DataPath::NotVip);
        assert!(n.dip.is_none());
        let d = ForwardDecision::dropped();
        assert_eq!(d.path, DataPath::Dropped);
        assert!(!d.conn_table_hit);
    }

    #[test]
    fn rewrite_op_mapping() {
        use sr_types::Addr;
        let dip = Dip(Addr::v4(10, 0, 0, 1, 20));
        let fwd = ForwardDecision {
            dip: Some(dip),
            path: DataPath::AsicConnTable,
            version: None,
            conn_table_hit: true,
            false_hit: false,
        };
        for mode in [RewriteMode::Nat, RewriteMode::Encap] {
            assert_eq!(fwd.rewrite_op(mode), Some(RewriteOp { dip, mode }));
        }
        let redirected = ForwardDecision {
            path: DataPath::SoftwareRedirect,
            ..fwd
        };
        assert!(redirected.rewrite_op(RewriteMode::Nat).is_some());
        assert!(ForwardDecision::dropped()
            .rewrite_op(RewriteMode::Nat)
            .is_none());
        assert!(ForwardDecision::not_vip()
            .rewrite_op(RewriteMode::Nat)
            .is_none());
    }
}

//! Packet-time connection hashes — the currency of the algorithm boundary.
//!
//! Every [`crate::ConnState`] implementation consumes the same packet-time
//! hash bundle: per-stage bucket hashes plus a match-field hash, computed
//! once per packet and carried (by value, `Copy`, allocation-free) through
//! whatever learn→install pipeline the algorithm uses. This module is the
//! home of that bundle and of the one hasher that produces it,
//! [`KeyHasher`]: the SilkRoad switch (`sr-core` re-exports these types
//! from its `dataplane`) and the zoo's [`crate::AlgoEngine`] hash every
//! packet through the same code.

use sr_hash::{hash_all, HashFn};
use sr_types::{FiveTuple, TupleKey};

/// Upper bound on the hash functions the packet path evaluates *eagerly*
/// (ConnTable stages + digest + ECMP select). The paper's switch uses
/// 4 + 1 + 1; the bound is kept tight because the hashed-key carriers live
/// on the hot path's stack.
pub const MAX_PACKET_HASHES: usize = 8;

/// [`MAX_PACKET_HASHES`] as the `u8` lane counter the carriers store.
const MAX_LANES: u8 = MAX_PACKET_HASHES as u8;

/// Upper bound on the TransitTable bloom ways hashed lazily on the miss
/// path (the paper uses 4).
pub const MAX_BLOOM_HASHES: usize = 8;

/// A per-packet hash-function list, split by when each value is needed.
/// The eager list — ConnTable stage bucket hashes, the ConnTable
/// match-field (digest) hash, the ECMP select hash — is everything a
/// steady-state ConnTable hit consumes; [`KeyHasher::hash_tuple`] evaluates
/// it in one multi-accumulator pass per packet ([`sr_hash::hash_all`]).
/// The TransitTable bloom hashes are only read on the VIPTable miss path,
/// so [`KeyHasher::bloom_hashes`] computes them on demand there and hit
/// packets never pay for them.
///
/// Both passes are bit-identical to calling each `HashFn` separately — so
/// every experiment number is unchanged by the hash-once path.
pub struct KeyHasher {
    fns: Vec<HashFn>,
    bloom_fns: Vec<HashFn>,
    conn_stages: usize,
}

impl KeyHasher {
    /// Assemble the layout. Panics if either function count exceeds its
    /// bound ([`MAX_PACKET_HASHES`] / [`MAX_BLOOM_HASHES`] — far beyond any
    /// paper configuration).
    pub fn new(
        conn_stage_fns: &[HashFn],
        conn_match_fn: HashFn,
        select_fn: HashFn,
        bloom_fns: &[HashFn],
    ) -> KeyHasher {
        let mut fns = Vec::with_capacity(conn_stage_fns.len() + 2);
        fns.extend_from_slice(conn_stage_fns);
        fns.push(conn_match_fn);
        fns.push(select_fn);
        assert!(
            fns.len() <= MAX_PACKET_HASHES,
            "packet path needs {} eager hash functions; MAX_PACKET_HASHES is {}",
            fns.len(),
            MAX_PACKET_HASHES
        );
        assert!(
            bloom_fns.len() <= MAX_BLOOM_HASHES,
            "miss path needs {} bloom hash functions; MAX_BLOOM_HASHES is {}",
            bloom_fns.len(),
            MAX_BLOOM_HASHES
        );
        KeyHasher {
            fns,
            bloom_fns: bloom_fns.to_vec(),
            conn_stages: conn_stage_fns.len(),
        }
    }

    /// The zoo's layout: `HashFn::family(seed, stages + 2)` split as
    /// `stages` bucket hashes, then the match hash, then the select hash,
    /// with no bloom ways.
    pub fn family(seed: u64, stages: usize) -> KeyHasher {
        let fns = HashFn::family(seed, stages + 2);
        KeyHasher::new(&fns[..stages], fns[stages], fns[stages + 1], &[])
    }

    /// Encode the tuple's inline key and evaluate every eager hash function
    /// over it in one pass. No heap allocation.
    // srlint: hot-path begin
    #[inline]
    pub fn hash_tuple(&self, tuple: &FiveTuple) -> HashedKey {
        let key = tuple.tuple_key();
        let mut vals = [0u64; MAX_PACKET_HASHES];
        hash_all(&self.fns, key.as_slice(), &mut vals[..self.fns.len()]);
        HashedKey {
            key,
            vals,
            conn_stages: self.conn_stages as u8,
        }
    }

    /// Evaluate the TransitTable bloom hashes over an already-encoded key —
    /// the miss path's lazy second pass. Bit-identical to running each
    /// bloom `HashFn` standalone; no heap allocation.
    #[inline]
    pub fn bloom_hashes(&self, key: &TupleKey) -> BloomHashes {
        let mut vals = [0u64; MAX_BLOOM_HASHES];
        hash_all(
            &self.bloom_fns,
            key.as_slice(),
            &mut vals[..self.bloom_fns.len()],
        );
        BloomHashes {
            vals,
            n: self.bloom_fns.len() as u8,
        }
    }
    // srlint: hot-path end
}

/// One packet key plus the precomputed outputs of the eager
/// [`KeyHasher`] layout over it.
#[derive(Clone, Copy)]
pub struct HashedKey {
    key: TupleKey,
    vals: [u64; MAX_PACKET_HASHES],
    conn_stages: u8,
}

impl HashedKey {
    // srlint: hot-path begin
    /// The inline key bytes.
    #[inline]
    pub fn key(&self) -> &TupleKey {
        &self.key
    }

    /// Per-stage ConnTable bucket hashes.
    #[inline]
    pub fn conn_stage_hashes(&self) -> &[u64] {
        &self.vals[..usize::from(self.conn_stages)]
    }

    /// The ConnTable match-field (digest) hash.
    #[inline]
    pub fn conn_match_hash(&self) -> u64 {
        self.vals[usize::from(self.conn_stages)]
    }

    /// The ECMP/DIP-select hash.
    #[inline]
    pub fn select_hash(&self) -> u64 {
        self.vals[usize::from(self.conn_stages) + 1]
    }

    /// Snapshot the ConnTable-relevant hashes (stage buckets + match/digest
    /// hash) for the learn→install pipeline: the learn event carries this
    /// so the eventual cuckoo insert reuses the packet-time hash pass
    /// instead of re-hashing the key on the switch CPU.
    #[inline]
    pub fn conn_hashes(&self) -> ConnHashes {
        let mut stage_hashes = [0u64; MAX_PACKET_HASHES];
        let stages = usize::from(self.conn_stages);
        stage_hashes[..stages].copy_from_slice(&self.vals[..stages]);
        ConnHashes::from_parts(stage_hashes, self.conn_stages, self.conn_match_hash())
    }
    // srlint: hot-path end
}

/// The miss path's lazily computed TransitTable bloom hashes
/// ([`KeyHasher::bloom_hashes`]).
#[derive(Clone, Copy)]
pub struct BloomHashes {
    vals: [u64; MAX_BLOOM_HASHES],
    n: u8,
}

impl BloomHashes {
    // srlint: hot-path begin
    /// One output per configured bloom way.
    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        &self.vals[..usize::from(self.n)]
    }
    // srlint: hot-path end
}

/// The ConnTable hash values a learn event carries from packet time to
/// install time. `Copy` and fixed-size so the whole learn→CPU→install
/// journey stays allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConnHashes {
    stage_hashes: [u64; MAX_PACKET_HASHES],
    stages: u8,
    match_hash: u64,
}

impl ConnHashes {
    /// A placeholder with no usable hashes (`stages() == 0`); install paths
    /// fall back to re-hashing the key when they meet one.
    pub fn empty() -> ConnHashes {
        ConnHashes {
            stage_hashes: [0u64; MAX_PACKET_HASHES],
            stages: 0,
            match_hash: 0,
        }
    }

    /// Assemble from a packet-time hash pass: the first `stages` lanes of
    /// `stage_hashes` are per-stage bucket hashes, `match_hash` is the
    /// match-field (digest/fingerprint) hash. Lane counts beyond
    /// [`MAX_PACKET_HASHES`] are clamped — callers size their hash layouts
    /// at construction, so the clamp is unreachable in practice.
    // srlint: hot-path begin
    pub fn from_parts(
        stage_hashes: [u64; MAX_PACKET_HASHES],
        stages: u8,
        match_hash: u64,
    ) -> ConnHashes {
        ConnHashes {
            stage_hashes,
            stages: stages.min(MAX_LANES),
            match_hash,
        }
    }

    /// Per-stage ConnTable bucket hashes.
    pub fn stage_hashes(&self) -> &[u64] {
        &self.stage_hashes[..usize::from(self.stages)]
    }

    /// The ConnTable match-field (digest) hash.
    pub fn match_hash(&self) -> u64 {
        self.match_hash
    }

    /// Number of stage hashes captured (0 for [`ConnHashes::empty`]).
    pub fn stages(&self) -> usize {
        usize::from(self.stages)
    }
    // srlint: hot-path end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_stages() {
        let h = ConnHashes::empty();
        assert_eq!(h.stages(), 0);
        assert!(h.stage_hashes().is_empty());
        assert_eq!(h.match_hash(), 0);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut lanes = [0u64; MAX_PACKET_HASHES];
        lanes[0] = 7;
        lanes[1] = 9;
        let h = ConnHashes::from_parts(lanes, 2, 0xfeed);
        assert_eq!(h.stages(), 2);
        assert_eq!(h.stage_hashes(), &[7, 9]);
        assert_eq!(h.match_hash(), 0xfeed);
    }

    #[test]
    fn from_parts_clamps_stage_count() {
        let h = ConnHashes::from_parts([1u64; MAX_PACKET_HASHES], 200, 0);
        assert_eq!(h.stages(), MAX_PACKET_HASHES);
    }
}

//! The address plan every workload shares, flow identities, and the
//! prebuilt frame pool the timed loops read from.
//!
//! 16 VIPs with 16 DIPs each; VIPs 12..16 are IPv6, so a quarter of the
//! flows (VIPs are drawn uniformly) are IPv6. DIP index 16 of every VIP is
//! the spare that `update` adds and removes.

use silkroad::SilkRoadConfig;
use sr_hash::splitmix64;
use sr_types::{Addr, Dip, FiveTuple, PacketMeta, TcpFlags, Vip};
use sr_wire::{build_frame, FrameSpec};

/// VIPs in the plan.
pub const VIPS: usize = 16;
/// DIPs in each VIP's initial pool.
pub const DIPS: usize = 16;
/// VIPs `V6_FROM..VIPS` are IPv6.
pub const V6_FROM: usize = 12;
/// Index of the spare DIP the `update` workload adds and removes.
pub const SPARE_DIP: usize = DIPS;
/// Largest frame the pool holds.
pub const MAX_FRAME: usize = 1_500;

/// VIP `v`.
pub fn vip(v: usize) -> Vip {
    if v < V6_FROM {
        Vip(Addr::v4(20, 0, 0, v as u8 + 1, 80))
    } else {
        Vip(Addr::v6([0xfd00, 0x20, 0, 0, 0, 0, 0, v as u16 + 1], 80))
    }
}

/// DIP `d` of VIP `v` (`d == SPARE_DIP` is the spare).
pub fn dip(v: usize, d: usize) -> Dip {
    if v < V6_FROM {
        Dip(Addr::v4(10, v as u8, 0, d as u8 + 1, 8080))
    } else {
        Dip(Addr::v6(
            [0xfd00, 0x10, v as u16, 0, 0, 0, 0, d as u16 + 1],
            8080,
        ))
    }
}

/// VIP `v`'s initial pool.
pub fn pool(v: usize) -> Vec<Dip> {
    (0..DIPS).map(|d| dip(v, d)).collect()
}

/// The switch configuration every workload runs: the paper's defaults
/// (6-bit versions, 256-byte TransitTable, 2K learning filter, 200K/s
/// CPU) with the ConnTable provisioned at twice the live population and
/// 24-bit digests, the wider width the paper also evaluates. With 16-bit
/// digests a few packets per run take a digest false hit on another
/// flow's entry and leave their first DIP, which the PCC gate counts as
/// failures. The switch's own hash seed stays fixed: `--seed` varies the
/// inputs only.
pub fn config(conns: usize) -> SilkRoadConfig {
    SilkRoadConfig {
        conn_capacity: (conns * 2).max(4_096),
        digest_bits: 24,
        ..SilkRoadConfig::default()
    }
}

/// Flow namespaces: tuples of different namespaces never collide.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Space {
    /// Long-lived connections established during set-up.
    Established = 0,
    /// Short-lived connections born during the run.
    Churn = 1,
}

/// A flow's 5-tuple and VIP index. Deterministic in `(seed, space, id)`;
/// distinct ids of one space give distinct tuples (the id is the source
/// address, up to 2^24 ids).
pub fn flow(seed: u64, space: Space, id: u32) -> (FiveTuple, usize) {
    let h = splitmix64(seed ^ ((space as u64) << 40) ^ u64::from(id));
    let v = (h % VIPS as u64) as usize;
    let port = 1_024 + ((h >> 16) % 60_000) as u16;
    let src = if v < V6_FROM {
        Addr::v4_indexed(100 + space as u8, id, port)
    } else {
        Addr::v6_indexed(0x100 + space as u16, id, port)
    };
    (FiveTuple::tcp(src, vip(v).0), v)
}

/// A small deterministic generator (splitmix64 stream).
pub struct Rng(u64);

impl Rng {
    /// Seeded stream; `salt` separates streams of one seed.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(splitmix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// IMIX-style frame size: 7:4:1 of minimum-size, 576-byte and 1500-byte
/// frames (`build_frame` raises 64 to the header minimum where needed).
pub fn imix_len(rng: &mut Rng) -> u32 {
    match rng.below(12) {
        0..=6 => 64,
        7..=10 => 576,
        _ => 1_500,
    }
}

/// Prebuilt frames in one arena, with the flow each belongs to and the
/// metadata the parser recovers from it.
#[derive(Default)]
pub struct FramePool {
    bytes: Vec<u8>,
    off: Vec<u32>,
    len: Vec<u16>,
    /// Flow id per frame (index into the PCC tracker's first-DIP table).
    pub flow: Vec<u32>,
    /// What the parser reads from each frame (set-up feeds these to the
    /// engine directly; the timed loops parse the bytes).
    pub meta: Vec<PacketMeta>,
}

impl FramePool {
    /// Build and append one frame; returns its index.
    pub fn push(&mut self, tuple: FiveTuple, flags: TcpFlags, wire_len: u32, flow: u32) -> u32 {
        let mut buf = [0u8; MAX_FRAME];
        let spec = FrameSpec {
            tuple,
            flags,
            wire_len,
            seq: u64::from(flow) << 2 | u64::from(flags.0 & 3),
        };
        let n = build_frame(&spec, &mut buf).expect("plan tuples always build");
        let idx = self.off.len() as u32;
        self.off.push(self.bytes.len() as u32);
        self.len.push(n as u16);
        self.bytes.extend_from_slice(&buf[..n]);
        self.flow.push(flow);
        let parsed = sr_wire::parse_frame(&buf[..n]).expect("built frames parse");
        self.meta.push(parsed.meta);
        idx
    }

    /// Frame `i`'s bytes.
    #[inline]
    pub fn frame(&self, i: u32) -> &[u8] {
        let i = i as usize;
        let o = self.off[i] as usize;
        &self.bytes[o..o + self.len[i] as usize]
    }

    /// Frames in the pool.
    pub fn len(&self) -> usize {
        self.off.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.off.is_empty()
    }

    /// Arena bytes.
    pub fn bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarter_of_flows_are_v6_and_tuples_are_distinct() {
        let mut v6 = 0;
        let mut seen = std::collections::HashSet::new();
        for id in 0..4_000 {
            let (t, v) = flow(7, Space::Churn, id);
            v6 += usize::from(v >= V6_FROM);
            assert!(seen.insert(t));
            assert_eq!(t.dst, vip(v).0);
        }
        assert!((800..1_200).contains(&v6), "{v6} of 4000 flows are v6");
    }

    #[test]
    fn pool_frames_parse_back_to_their_tuple() {
        let mut p = FramePool::default();
        let mut rng = Rng::new(1, 2);
        for id in 0..64 {
            let (t, _) = flow(3, Space::Established, id);
            let i = p.push(t, TcpFlags::ACK, imix_len(&mut rng), id);
            let parsed = sr_wire::parse_frame(p.frame(i)).unwrap();
            assert_eq!(parsed.meta.tuple, t);
            assert!(sr_wire::verify_checksums(p.frame(i)).is_ok());
        }
    }
}

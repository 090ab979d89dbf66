//! The three workloads: their frame pools, their step schedules and the
//! set-up that brings an engine to the state the timed window starts in.
//!
//! A workload is a cyclic schedule of *steps*. Step `s` is one batch of
//! prebuilt frames (schedule slot `s % period`) at simulated time
//! `base + s * dt`, followed by its control operations: a close for every
//! FIN in the batch, the DIP-pool update scheduled at that slot (if any),
//! and an `advance` every `advance_every` steps. Everything is a function
//! of the seed and the step index, so any run of steps `a..b` can be
//! replayed exactly by another engine.

use crate::plan::{self, FramePool, Rng, Space};
use silkroad::{ForwardDecision, MultiPipeSwitch, PoolUpdate};
use sr_types::{Nanos, PacketMeta, TcpFlags, Vip};

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// ~1M established connections, data frames only.
    Steady,
    /// Short-lived flows at minimum frame size.
    Churn,
    /// 256K established connections, moderate churn, frequent pool updates.
    Update,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "steady" => Some(Kind::Steady),
            "churn" => Some(Kind::Churn),
            "update" => Some(Kind::Update),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Churn => "churn",
            Kind::Update => "update",
        }
    }
}

/// Sizes and pacing of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Connections established during set-up.
    pub established: u32,
    /// Established flows that carry data frames (one pool frame each).
    pub data_flows: u32,
    /// Established data frames per step.
    pub data_per_step: u32,
    /// New short-lived flows per step.
    pub births: u32,
    /// Steps in one schedule period.
    pub period: u32,
    /// Simulated time per step, nanoseconds.
    pub dt_ns: u64,
    /// Explicit `advance` every this many steps.
    pub advance_every: u32,
    /// A DIP-pool update every this many steps (0: none).
    pub update_every: u32,
    /// Schedule steps run during set-up, before the timed window.
    pub warmup_steps: u32,
    /// Open-loop offered rate, packets per second: under a tenth of the
    /// closed-loop rate on a quiet 2-core host, so the loop stays below
    /// the engine's rate when a busy host cuts it to a third.
    pub open_rate_pps: f64,
}

impl Shape {
    /// Connections the ConnTable must hold at once: the established
    /// population plus every short-lived flow that can be alive.
    pub fn conns(&self) -> usize {
        (self.established + self.births * (MAX_LIFE + 8)) as usize
    }

    /// The shape of `kind`; `smoke` shrinks every size for tests.
    pub fn of(kind: Kind, smoke: bool) -> Shape {
        let s = match kind {
            Kind::Steady => Shape {
                established: 1 << 20,
                data_flows: 1 << 18,
                data_per_step: 256,
                births: 0,
                period: 4_096,
                dt_ns: 100_000,
                advance_every: 16,
                update_every: 0,
                warmup_steps: 64,
                open_rate_pps: 60_000.0,
            },
            Kind::Churn => Shape {
                established: 0,
                data_flows: 0,
                data_per_step: 0,
                births: 48,
                period: 2_736,
                dt_ns: 384_000,
                advance_every: 4,
                update_every: 0,
                warmup_steps: 512,
                open_rate_pps: 15_000.0,
            },
            Kind::Update => Shape {
                established: 1 << 18,
                data_flows: 1 << 16,
                data_per_step: 216,
                births: 8,
                period: 4_096,
                dt_ns: 200_000,
                advance_every: 4,
                update_every: 16,
                warmup_steps: 512,
                open_rate_pps: 35_000.0,
            },
        };
        if !smoke {
            return s;
        }
        Shape {
            established: s.established.min(4_096),
            data_flows: s.data_flows.min(1_024),
            data_per_step: s.data_per_step.min(64),
            births: s.births.min(8),
            period: 256,
            warmup_steps: 64,
            open_rate_pps: 20_000.0,
            ..s
        }
    }
}

/// A built workload: frames, schedule and the seed they came from.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Sizes and pacing.
    pub shape: Shape,
    /// Every frame any step sends.
    pub pool: FramePool,
    /// Frame indices of all schedule slots, concatenated.
    slots: Vec<u32>,
    /// Slot `k` is `slots[starts[k]..starts[k + 1]]`.
    starts: Vec<u32>,
    /// Per slot: `Some((vip, add))` when a pool update is requested.
    updates: Vec<Option<(u8, bool)>>,
    /// Simulated time of step 0.
    base_ns: u64,
    /// Flow ids in use (established, then churn tuples).
    pub flows: u32,
}

/// Established flows are set up in waves this size, one wave per
/// `WAVE_NS` of simulated time: under the learning filter's 2K capacity,
/// and the 200K/s CPU drains a wave in ~5 ms.
const WAVE: usize = 1_024;
const WAVE_NS: u64 = 10_000_000;

/// Zipf exponent of data-flow popularity: the top 1% of flows draw about
/// 16% of the data frames, so the hot set stays far larger than L2.
const ZIPF: f64 = 0.6;

/// Longest short-lived flow, in steps from SYN to the last data frame.
const MAX_LIFE: u32 = 32;

/// A cumulative distribution over `n` ranks with `P(r) ∝ (r + 1)^-s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|r| {
            acc += ((r + 1) as f64).powf(-s);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

impl Workload {
    /// Generate the workload's frames and schedule from `seed`.
    pub fn build(kind: Kind, seed: u64, smoke: bool) -> Workload {
        let shape = Shape::of(kind, smoke);
        let period = shape.period as usize;
        let mut pool = FramePool::default();
        let mut per_slot: Vec<Vec<u32>> = vec![Vec::new(); period];

        // Established data: one frame per data flow (IMIX sizes), drawn
        // with Zipf-like popularity; popular ranks scatter over the flows.
        if let Some(stride) = shape.established.checked_div(shape.data_flows) {
            let mut rng = Rng::new(seed, 1);
            let stride = stride.max(1);
            let first = pool.len() as u32;
            for i in 0..shape.data_flows {
                let id = i * stride + rng.below(u64::from(stride)) as u32;
                let (t, _) = plan::flow(seed, Space::Established, id);
                pool.push(t, TcpFlags::ACK, plan::imix_len(&mut rng), id);
            }
            let n = shape.data_flows as usize;
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                perm.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let cdf = zipf_cdf(n, ZIPF);
            for slot in &mut per_slot {
                for _ in 0..shape.data_per_step {
                    let u = rng.unit();
                    let r = cdf.partition_point(|&c| c < u).min(n - 1);
                    slot.push(first + perm[r]);
                }
            }
        }

        // Short-lived flows: SYN (10% retransmitted), 2-4 data frames and a
        // FIN over an 8-32 step life, all minimum-size frames. Flow `g` is
        // born in slot `g / births`; lives wrap around the period, and each
        // tuple appears once per period, long after its last FIN.
        let tuples = shape.births * shape.period;
        if tuples > 0 {
            let mut rng = Rng::new(seed, 2);
            for g in 0..tuples {
                let id = shape.established + g;
                let (t, _) = plan::flow(seed, Space::Churn, g);
                let syn = pool.push(t, TcpFlags::SYN, 64, id);
                let data = pool.push(t, TcpFlags::ACK, 64, id);
                let fin = pool.push(t, TcpFlags::FIN.with(TcpFlags::ACK), 64, id);
                let born = (g / shape.births) as usize;
                let life = 8 + rng.below(u64::from(MAX_LIFE) - 7) as usize;
                per_slot[born].push(syn);
                if rng.below(10) == 0 {
                    per_slot[(born + 1 + rng.below(3) as usize) % period].push(syn);
                }
                for _ in 0..2 + rng.below(3) {
                    per_slot[(born + 1 + rng.below(life as u64) as usize) % period].push(data);
                }
                per_slot[(born + life + 1) % period].push(fin);
            }
        }

        let mut slots = Vec::new();
        let mut starts = Vec::with_capacity(period + 1);
        for s in &per_slot {
            starts.push(slots.len() as u32);
            slots.extend_from_slice(s);
        }
        starts.push(slots.len() as u32);

        // Pool updates rotate over the VIPs: add the spare DIP, then remove
        // it again one interval later. Removing the DIP that was just added
        // redeems the version before the add, so no live connection moves.
        let mut updates = vec![None; period];
        if shape.update_every > 0 {
            for (k, u) in updates.iter_mut().enumerate() {
                if k % shape.update_every as usize == 0 {
                    let n = k / shape.update_every as usize;
                    *u = Some((((n / 2) % plan::VIPS) as u8, n.is_multiple_of(2)));
                }
            }
        }

        let waves = (shape.established as u64).div_ceil(WAVE as u64);
        Workload {
            kind,
            seed,
            shape,
            pool,
            slots,
            starts,
            updates,
            base_ns: (waves + 10) * WAVE_NS,
            flows: shape.established + tuples,
        }
    }

    /// Frames of step `s`.
    #[inline]
    pub fn frames(&self, s: u64) -> &[u32] {
        let k = (s % u64::from(self.shape.period)) as usize;
        &self.slots[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// Simulated time of step `s`.
    #[inline]
    pub fn now(&self, s: u64) -> Nanos {
        Nanos(self.base_ns + s * self.shape.dt_ns)
    }

    /// The pool update requested after step `s`, if any.
    #[inline]
    pub fn update(&self, s: u64) -> Option<(PoolUpdate, Vip)> {
        let k = (s % u64::from(self.shape.period)) as usize;
        self.updates[k].map(|(v, add)| {
            let spare = plan::dip(v as usize, plan::SPARE_DIP);
            let op = if add {
                PoolUpdate::Add(spare)
            } else {
                PoolUpdate::Remove(spare)
            };
            (op, plan::vip(v as usize))
        })
    }

    /// Whether step `s` ends with an explicit `advance`.
    #[inline]
    pub fn advances(&self, s: u64) -> bool {
        s.is_multiple_of(u64::from(self.shape.advance_every))
    }

    /// Packets in one full schedule period.
    pub fn period_packets(&self) -> usize {
        self.slots.len()
    }

    /// Register the VIPs and establish the pre-warmed population: SYN
    /// waves through `process_batch_into` with an `advance` after each,
    /// then `warmup_steps` schedule steps (as packet metadata, no wire
    /// work). `seen` observes every set-up decision (flow id, packet,
    /// decision) so a PCC check can start from set-up. Returns the first
    /// step of the timed window.
    pub fn setup(
        &self,
        sw: &mut MultiPipeSwitch,
        seen: &mut dyn FnMut(u32, &PacketMeta, &ForwardDecision),
    ) -> u64 {
        for v in 0..plan::VIPS {
            sw.add_vip(plan::vip(v), plan::pool(v))
                .expect("plan VIPs register");
        }
        let mut out = Vec::with_capacity(WAVE.max(1_024));
        let mut metas: Vec<PacketMeta> = Vec::with_capacity(WAVE.max(1_024));
        let mut ids: Vec<u32> = Vec::with_capacity(WAVE.max(1_024));
        let mut now = 0u64;
        let mut id = 0u32;
        while id < self.shape.established {
            metas.clear();
            ids.clear();
            let end = (id + WAVE as u32).min(self.shape.established);
            for i in id..end {
                metas.push(PacketMeta::syn(
                    plan::flow(self.seed, Space::Established, i).0,
                ));
                ids.push(i);
            }
            out.clear();
            sw.process_batch_into(&metas, Nanos(now), &mut out);
            for ((i, m), d) in ids.iter().zip(&metas).zip(&out) {
                seen(*i, m, d);
            }
            id = end;
            now += WAVE_NS;
            sw.advance(Nanos(now));
        }
        sw.advance(Nanos(self.base_ns));
        for s in 0..u64::from(self.shape.warmup_steps) {
            let now = self.now(s);
            metas.clear();
            ids.clear();
            for &f in self.frames(s) {
                metas.push(self.pool.meta[f as usize]);
                ids.push(self.pool.flow[f as usize]);
            }
            out.clear();
            sw.process_batch_into(&metas, now, &mut out);
            for ((i, m), d) in ids.iter().zip(&metas).zip(&out) {
                seen(*i, m, d);
            }
            for m in &metas {
                if m.flags.is_fin() {
                    sw.close_connection(&m.tuple, now);
                }
            }
            if let Some((op, vip)) = self.update(s) {
                sw.request_update(vip, op, now).expect("plan updates apply");
            }
            if self.advances(s) {
                sw.advance(now);
            }
        }
        u64::from(self.shape.warmup_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = Workload::build(Kind::Update, 5, true);
        let b = Workload::build(Kind::Update, 5, true);
        let c = Workload::build(Kind::Update, 6, true);
        let frames = |w: &Workload| -> Vec<Vec<u8>> {
            (0..32)
                .flat_map(|s| w.frames(s).iter().map(|&f| w.pool.frame(f).to_vec()))
                .collect()
        };
        assert_eq!(frames(&a), frames(&b));
        assert_ne!(frames(&a), frames(&c));
    }

    #[test]
    fn churn_lives_end_with_one_fin_after_their_syn() {
        let w = Workload::build(Kind::Churn, 3, true);
        let mut syn_at = std::collections::HashMap::new();
        let mut fins = 0;
        // Two periods: every life that starts in the first ends by the second.
        for s in 0..2 * u64::from(w.shape.period) {
            for &f in w.frames(s) {
                let m = w.pool.meta[f as usize];
                if m.flags.is_syn() {
                    syn_at.entry(m.tuple).or_insert(s);
                } else if m.flags.is_fin() && syn_at.contains_key(&m.tuple) {
                    assert!(s > syn_at[&m.tuple] + 8);
                    fins += 1;
                }
            }
        }
        assert!(fins > 0);
    }
}

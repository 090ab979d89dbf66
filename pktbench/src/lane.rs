//! One step of a workload through the public entry points: parse every
//! frame, decide the batch, rewrite every frame toward its DIP, then the
//! step's control operations. The same code serves the timed run, the
//! traced run and the reference replay; what differs is the [`Hooks`]
//! implementation, which is monomorphized away where it does nothing.

use crate::workload::Workload;
use silkroad::{DataPath, ForwardDecision, MultiPipeSwitch};
use sr_hash::splitmix64;
use sr_types::{Dip, FrameView, PacketMeta, RewriteMode};
use std::net::IpAddr;
use std::time::Instant;

/// The layers a step calls into, in call order. `Batch` is the root span
/// of a step; `Check` is the benchmark's own decision folding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// The whole step.
    Batch = 0,
    /// `sr_wire::parse_frame` over the batch.
    Parse = 1,
    /// `MultiPipeSwitch::process_batch_into`.
    Engine = 2,
    /// `sr_wire::rewrite_frame` over the batch.
    Rewrite = 3,
    /// The benchmark's digest fold.
    Check = 4,
    /// `close_connection` and `request_update`.
    Control = 5,
    /// `MultiPipeSwitch::advance`.
    Advance = 6,
}

/// Span names, indexed by `Layer as usize`.
pub const LAYER_NAMES: [&str; 7] = [
    "batch",
    "wire.parse",
    "engine.batch",
    "wire.rewrite",
    "check",
    "engine.control",
    "engine.advance",
];

/// Observers of a step. `TRACED` gates every clock read.
pub trait Hooks {
    /// Whether [`Hooks::span`] wants timestamps.
    const TRACED: bool = false;
    /// A layer call on step `step` ran from `t0` to `t1`.
    fn span(&mut self, _layer: Layer, _step: u64, _t0: Instant, _t1: Instant) {}
    /// A frame was rewritten into `out`.
    fn rewritten(&mut self, _out: &[u8]) {}
    /// Flow `flow`'s packet got decision `d`; `fin` closes the flow.
    fn decided(&mut self, _flow: u32, _d: &ForwardDecision, _fin: bool) {}
    /// Every frame of the batch is out (rewritten); the step's control
    /// operations follow.
    fn forwarded(&mut self) {}
}

/// The untraced, unverified timed path.
pub struct NoHooks;
impl Hooks for NoHooks {}

/// Failure counts, each against the packets offered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fails {
    /// Frames the parser rejected.
    pub parse: u64,
    /// Frames the rewrite engine rejected.
    pub rewrite: u64,
    /// Packets to a registered VIP that got no DIP.
    pub no_dip: u64,
}

/// Reusable per-step buffers and the running results of a sequence of
/// steps.
pub struct Lane {
    metas: Vec<PacketMeta>,
    views: Vec<FrameView>,
    frames: Vec<u32>,
    out: Vec<ForwardDecision>,
    samples: Vec<u64>,
    obuf: Vec<u8>,
    /// Order-dependent fold of every decision and rewrite.
    pub digest: u64,
    /// Packets offered.
    pub packets: u64,
    /// Bytes written by the rewrite engine.
    pub bytes_out: u64,
    /// `close_connection` + `request_update` calls.
    pub control_ops: u64,
    /// Failures seen.
    pub fails: Fails,
}

impl Default for Lane {
    fn default() -> Lane {
        Lane {
            metas: Vec::with_capacity(1_024),
            views: Vec::with_capacity(1_024),
            frames: Vec::with_capacity(1_024),
            out: Vec::with_capacity(1_024),
            samples: Vec::with_capacity(1_024),
            obuf: vec![0u8; crate::plan::MAX_FRAME + sr_wire::ENCAP_HEADROOM],
            digest: 0,
            packets: 0,
            bytes_out: 0,
            control_ops: 0,
            fails: Fails::default(),
        }
    }
}

/// A stable word for a DIP.
#[inline]
fn dip_word(d: Dip) -> u64 {
    let ip = match d.0.ip {
        IpAddr::V4(a) => u64::from(u32::from(a)),
        IpAddr::V6(a) => {
            let x = u128::from(a);
            (x as u64) ^ ((x >> 64) as u64).rotate_left(17)
        }
    };
    ip ^ (u64::from(d.0.port) << 48)
}

/// A stable word for everything a decision exposes.
#[inline]
fn decision_word(d: &ForwardDecision) -> u64 {
    let path = match d.path {
        DataPath::AsicConnTable => 1u64,
        DataPath::AsicVipTable => 2,
        DataPath::SoftwareRedirect => 3,
        DataPath::Dropped => 4,
        DataPath::NotVip => 5,
    };
    let version = d.version.map_or(0xffff, |v| u64::from(v.0));
    let dip = d.dip.map_or(0, dip_word);
    splitmix64(dip ^ (path << 56) ^ (version << 40))
}

/// First-DIP code of a decision for the PCC check (0: no DIP).
#[inline]
pub fn dip_code(d: &ForwardDecision) -> u32 {
    d.dip.map_or(0, |dip| {
        let w = dip_word(dip);
        ((w ^ (w >> 32)) as u32) | 1
    })
}

#[inline]
fn timed<H: Hooks>() -> Option<Instant> {
    if H::TRACED {
        Some(Instant::now())
    } else {
        None
    }
}

#[inline]
fn close_span<H: Hooks>(
    h: &mut H,
    layer: Layer,
    step: u64,
    t0: Option<Instant>,
) -> Option<Instant> {
    match t0 {
        Some(t0) => {
            let t1 = Instant::now();
            h.span(layer, step, t0, t1);
            Some(t1)
        }
        None => None,
    }
}

impl Lane {
    /// Run step `s` of `w` on `sw`.
    pub fn step<H: Hooks>(&mut self, w: &Workload, sw: &mut MultiPipeSwitch, s: u64, h: &mut H) {
        let now = w.now(s);
        let root = timed::<H>();

        self.metas.clear();
        self.views.clear();
        self.frames.clear();
        for &f in w.frames(s) {
            match sr_wire::parse_frame(w.pool.frame(f)) {
                Ok(p) => {
                    self.metas.push(p.meta);
                    self.views.push(p.view);
                    self.frames.push(f);
                }
                Err(_) => self.fails.parse += 1,
            }
        }
        self.packets += w.frames(s).len() as u64;
        let t = close_span(h, Layer::Parse, s, root);

        self.out.clear();
        sw.process_batch_into(&self.metas, now, &mut self.out);
        let t = close_span(h, Layer::Engine, s, t);

        self.samples.clear();
        for ((d, view), &f) in self.out.iter().zip(&self.views).zip(&self.frames) {
            let sample = match d.rewrite_op(RewriteMode::Nat) {
                Some(op) => {
                    match sr_wire::rewrite_frame(w.pool.frame(f), view, &op, &mut self.obuf) {
                        Ok(n) => {
                            self.bytes_out += n as u64;
                            // The rewritten L4 checksum and the length stand for
                            // the output frame in the digest.
                            let at = usize::from(view.l4) + 16;
                            let csum = u16::from_be_bytes([self.obuf[at], self.obuf[at + 1]]);
                            h.rewritten(&self.obuf[..n]);
                            (n as u64) << 16 | u64::from(csum)
                        }
                        Err(_) => {
                            self.fails.rewrite += 1;
                            u64::MAX
                        }
                    }
                }
                None => {
                    self.fails.no_dip += 1;
                    0
                }
            };
            self.samples.push(sample);
        }
        let t = close_span(h, Layer::Rewrite, s, t);
        h.forwarded();

        let mut acc = 0u64;
        for (i, ((d, sample), m)) in self
            .out
            .iter()
            .zip(&self.samples)
            .zip(&self.metas)
            .enumerate()
        {
            acc = acc.wrapping_add(splitmix64(
                (s << 20 | i as u64) ^ decision_word(d) ^ sample.rotate_left(32),
            ));
            h.decided(w.pool.flow[self.frames[i] as usize], d, m.flags.is_fin());
        }
        self.digest = self.digest.wrapping_add(acc);
        let t = close_span(h, Layer::Check, s, t);

        let mut ops = 0;
        for m in &self.metas {
            if m.flags.is_fin() {
                sw.close_connection(&m.tuple, now);
                ops += 1;
            }
        }
        if let Some((op, vip)) = w.update(s) {
            sw.request_update(vip, op, now).expect("plan updates apply");
            ops += 1;
        }
        self.control_ops += ops;
        let t = if ops > 0 {
            close_span(h, Layer::Control, s, t)
        } else {
            t
        };

        let t = if w.advances(s) {
            sw.advance(now);
            close_span(h, Layer::Advance, s, t)
        } else {
            t
        };
        if let (Some(t0), Some(t1)) = (root, t) {
            h.span(Layer::Batch, s, t0, t1);
        }
    }
}

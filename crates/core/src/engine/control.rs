//! Control-plane ops and the rules for handing them to pipe workers.
//!
//! Every control-plane call (VIP registration, 3-step PCC updates,
//! health events, meters, `advance`, idle expiry, connection close) is
//! published as an immutable [`ControlOp`] appended to the engine's
//! [`sr_exec::EpochLog`]; the log's length is the **epoch**. Every job
//! handed to a pipe worker is stamped with the epoch observed when the
//! facade created it, and the worker *adopts* — applies, in publication
//! order — the ops up to that stamp before acting on the job. Job
//! boundaries are the only place pipe state changes, so the interleaving
//! of ops and batches is identical in every pipe, for every pipe count,
//! and on the inline backend (which applies each op at publish time).
//! That is what keeps decisions bit-identical and PCC intact under
//! concurrent updates.
//!
//! # Synchronous and posted ops
//!
//! | op | kind | why |
//! |---|---|---|
//! | `AddVip`, `RemoveVip`, `RequestUpdate`, `Health` | synchronous | can fail; the caller gets the error |
//! | `ExpireIdle` | synchronous | returns the expired count |
//! | `CloseConn`, `Advance`, `AttachMeter`, `DetachMeter` | posted | infallible, return nothing |
//!
//! [`ControlOp::is_posted`] is the only place this split is made. A
//! synchronous op round-trips: the facade publishes it, sends every
//! worker a `Job::Control`, and waits for one reply per pipe (summed
//! expiry counts, first error). A posted op is published and the call
//! returns at once; workers adopt it at their next job boundary, so the
//! data plane never waits for it. [`apply_op`] returns `(0, Ok(()))` for
//! every posted op, so no outcome can be stranded in a worker and
//! surface on some later synchronous call.
//!
//! # Adoption rule
//!
//! `Job::Batch`, `Job::Control` and `Job::Query` adopt exactly up to
//! their stamp. After a post the facade pushes one reply-less
//! `Job::Adopt` to each worker the op concerns, but only when that
//! worker's job ring is empty: an idle worker then adopts while the
//! caller parses and rewrites, instead of at the head of the next batch.
//! A worker that pops `Adopt` reads the log's current epoch `E` *first*
//! and then checks its job ring. If the ring is empty it adopts up to
//! `E`, coalescing a burst of posts into one adoption; otherwise only up
//! to the job's own stamp. Every atomic involved is `SeqCst`, and the
//! facade pushes each job before it publishes any later op, so every
//! job stamped below `E` was pushed before `E` was published. A worker
//! whose epoch load saw `E` and whose later ring check found the ring
//! empty has therefore popped — and, as the only consumer, finished —
//! every such job.
//!
//! # Truncation and the log bound
//!
//! The facade reclaims the log from completions that happen anyway: a
//! finished batch proves its worker adopted up to the batch's stamp, and
//! a control or query reply proves its epoch. The log is truncated to
//! the minimum adopted epoch across workers (the RCU grace period).
//! `Adopt` nudges are reply-less, so a run of posts with no batch in
//! between would grow the log without limit; once [`POSTED_LOG_BOUND`]
//! ops are retained, the post that reaches the bound makes one
//! synchronous adoption round trip, after which the log is empty.

use crate::health::HealthEvent;
use crate::pool::PoolUpdate;
use crate::switch::SilkRoadSwitch;
use sr_asic::MeterConfig;
use sr_types::{Dip, FiveTuple, Nanos, TypeError, Vip};

/// Most ops the threaded engine's log retains; the post that reaches it
/// makes one synchronous adoption round trip instead of a nudge.
pub(crate) const POSTED_LOG_BOUND: usize = 1024;

/// One published control-plane operation. Immutable once in the log.
#[derive(Clone, Debug)]
pub(crate) enum ControlOp {
    /// Register a VIP with its initial DIP pool (every pipe).
    AddVip {
        /// The VIP.
        vip: Vip,
        /// Initial pool members.
        dips: Vec<Dip>,
    },
    /// Remove a VIP (every pipe).
    RemoveVip {
        /// The VIP.
        vip: Vip,
    },
    /// Start a 3-step PCC pool update (every pipe).
    RequestUpdate {
        /// The VIP.
        vip: Vip,
        /// The pool change.
        op: PoolUpdate,
        /// Publication time.
        now: Nanos,
    },
    /// Apply health transitions (every pipe).
    Health {
        /// The transitions.
        events: Vec<HealthEvent>,
        /// Publication time.
        now: Nanos,
    },
    /// Attach a VIP meter (every pipe).
    AttachMeter {
        /// The VIP.
        vip: Vip,
        /// Meter parameters.
        cfg: MeterConfig,
    },
    /// Detach a VIP meter (every pipe).
    DetachMeter {
        /// The VIP.
        vip: Vip,
    },
    /// Run the control plane forward to `now` (every pipe).
    Advance {
        /// Target time.
        now: Nanos,
    },
    /// Run an idle-expiry scan (every pipe; counts are summed).
    ExpireIdle {
        /// Scan time.
        now: Nanos,
    },
    /// Close one connection. Steering picked the owning pipe at publish
    /// time; other pipes skip it (flow-to-pipe affinity means only the
    /// owner can hold the entry).
    CloseConn {
        /// The connection.
        tuple: FiveTuple,
        /// Close time.
        now: Nanos,
        /// The owning pipe's index.
        pipe: usize,
    },
}

impl ControlOp {
    /// Whether the op is posted (published without waiting for the
    /// workers) rather than synchronous. Posted ops are exactly the
    /// infallible ones that return nothing; see the module docs.
    pub(crate) fn is_posted(&self) -> bool {
        matches!(
            self,
            ControlOp::CloseConn { .. }
                | ControlOp::Advance { .. }
                | ControlOp::AttachMeter { .. }
                | ControlOp::DetachMeter { .. }
        )
    }
}

/// Apply one op to one pipe's switch. Returns (connections expired,
/// result). Shared by the threaded workers and the inline backend so
/// both interpret the op stream identically.
pub(crate) fn apply_op(
    pipe_id: usize,
    sw: &mut SilkRoadSwitch,
    op: &ControlOp,
) -> (usize, Result<(), TypeError>) {
    match op {
        ControlOp::AddVip { vip, dips } => (0, sw.add_vip(*vip, dips.clone())),
        ControlOp::RemoveVip { vip } => (0, sw.remove_vip(*vip)),
        ControlOp::RequestUpdate { vip, op, now } => (0, sw.request_update(*vip, *op, *now)),
        ControlOp::Health { events, now } => (0, sw.apply_health_events(events, *now)),
        ControlOp::AttachMeter { vip, cfg } => {
            sw.attach_meter(*vip, *cfg);
            (0, Ok(()))
        }
        ControlOp::DetachMeter { vip } => {
            sw.detach_meter(*vip);
            (0, Ok(()))
        }
        ControlOp::Advance { now } => {
            sw.advance(*now);
            (0, Ok(()))
        }
        ControlOp::ExpireIdle { now } => (sw.expire_idle(*now), Ok(())),
        ControlOp::CloseConn { tuple, now, pipe } => {
            if *pipe == pipe_id {
                sw.close_connection(tuple, *now);
            }
            (0, Ok(()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SilkRoadConfig;
    use sr_types::Addr;

    fn vip() -> Vip {
        Vip(Addr::v4(20, 0, 0, 1, 80))
    }

    fn dips() -> Vec<Dip> {
        (1..=3).map(|i| Dip(Addr::v4(10, 0, 0, i, 20))).collect()
    }

    /// One op of every variant, all naming [`vip`].
    fn every_op() -> Vec<ControlOp> {
        let now = Nanos::from_secs(1);
        vec![
            ControlOp::AddVip {
                vip: vip(),
                dips: dips(),
            },
            ControlOp::RemoveVip { vip: vip() },
            ControlOp::RequestUpdate {
                vip: vip(),
                op: PoolUpdate::Add(Dip(Addr::v4(10, 0, 0, 9, 20))),
                now,
            },
            ControlOp::Health {
                events: vec![HealthEvent::Down(vip(), Dip(Addr::v4(10, 0, 0, 1, 20)))],
                now,
            },
            ControlOp::AttachMeter {
                vip: vip(),
                cfg: MeterConfig {
                    cir_bps: 1_000_000,
                    cbs: 10_000,
                    eir_bps: 2_000_000,
                    ebs: 20_000,
                },
            },
            ControlOp::DetachMeter { vip: vip() },
            ControlOp::Advance { now },
            ControlOp::ExpireIdle { now },
            ControlOp::CloseConn {
                tuple: FiveTuple::tcp(Addr::v4(1, 2, 3, 4, 1234), vip().0),
                now,
                pipe: 0,
            },
        ]
    }

    #[test]
    fn posted_ops_are_exactly_the_infallible_ones() {
        let posted: Vec<&str> = every_op()
            .iter()
            .filter(|op| op.is_posted())
            .map(|op| match op {
                ControlOp::CloseConn { .. } => "CloseConn",
                ControlOp::Advance { .. } => "Advance",
                ControlOp::AttachMeter { .. } => "AttachMeter",
                ControlOp::DetachMeter { .. } => "DetachMeter",
                _ => "synchronous op classified as posted",
            })
            .collect();
        assert_eq!(
            posted,
            ["AttachMeter", "DetachMeter", "Advance", "CloseConn"]
        );
    }

    /// A posted op's outcome is never reported, so it must never have
    /// one: no expiry count and no error, whether or not its VIP exists
    /// and whether or not the applying pipe owns the connection.
    #[test]
    fn posted_ops_never_fail_or_expire() {
        for registered in [false, true] {
            let mut sw = SilkRoadSwitch::new(SilkRoadConfig::small_test());
            if registered {
                sw.add_vip(vip(), dips()).unwrap();
            }
            for op in every_op().iter().filter(|op| op.is_posted()) {
                for pipe_id in [0, 1] {
                    assert_eq!(
                        apply_op(pipe_id, &mut sw, op),
                        (0, Ok(())),
                        "{op:?} on pipe {pipe_id}, VIP registered: {registered}"
                    );
                }
            }
        }
    }
}

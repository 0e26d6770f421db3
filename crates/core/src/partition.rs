//! Partitionability and multiuser operation (§2.2 / §6).
//!
//! The paper contrasts the two models' system-level behaviour:
//!
//! > "if two programs run on disjoint sets of processors, then their
//! > executions do not interfere" (LogP) — "a desirable property, as it
//! > nicely supports partitioning of the computation into independent
//! > subcomputations, as well as multiuser modes of operation."
//!
//! > "A drawback of the \[BSP\] model is that all synchronizations are
//! > essentially global so that, for instance, two programs cannot run
//! > independently on two disjoint sets of processors."
//!
//! [`logp_coschedule`] runs two tenants on disjoint halves of one LogP
//! machine and compares each tenant's completion time with its solo run
//! (they must be *identical* — the capacity constraint is per-destination
//! and the medium has no shared resource in the model).
//! [`bsp_coschedule`] runs two tenants through one BSP machine, where every
//! superstep's cost is `max` over both tenants' work and traffic plus one
//! shared barrier — the light tenant pays for the heavy one.

use bvl_bsp::{BspMachine, BspParams, BspProcess, Status, SuperstepCtx};
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, LogpProcess, Op, ProcView};
use bvl_model::{Envelope, ModelError, ProcId, Steps};
use std::collections::VecDeque;

/// A process wrapper that confines a tenant to a contiguous processor range
/// by translating its virtual ids (LogP side).
struct LogpTenantProc<P: LogpProcess> {
    inner: P,
    base: u32,
    vp: usize,
}

impl<P: LogpProcess> LogpProcess for LogpTenantProc<P> {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let virtual_view = ProcView {
            me: ProcId(view.me.0 - self.base),
            p: self.vp,
            ..*view
        };
        match self.inner.next_op(&virtual_view) {
            Op::Send { dst, payload } => {
                assert!(dst.index() < self.vp, "tenant escaped its partition");
                Op::Send {
                    dst: ProcId(dst.0 + self.base),
                    payload,
                }
            }
            other => other,
        }
    }
    fn on_recv(&mut self, mut msg: Envelope) {
        msg.src = ProcId(msg.src.0.saturating_sub(self.base));
        msg.dst = ProcId(msg.dst.0 - self.base);
        self.inner.on_recv(msg);
    }
}

/// Per-tenant completion times from a co-scheduled LogP run.
#[derive(Clone, Debug)]
pub struct LogpCoscheduleReport {
    /// Tenant A's completion (max halt time over its processors).
    pub tenant_a: Steps,
    /// Tenant B's completion.
    pub tenant_b: Steps,
    /// Solo makespans measured on dedicated machines of the partition size.
    pub solo_a: Steps,
    /// Solo makespan of tenant B.
    pub solo_b: Steps,
}

impl LogpCoscheduleReport {
    /// Interference factors (co-scheduled / solo); the LogP model promises
    /// exactly 1.0.
    pub fn interference(&self) -> (f64, f64) {
        (
            self.tenant_a.get() as f64 / self.solo_a.get().max(1) as f64,
            self.tenant_b.get() as f64 / self.solo_b.get().max(1) as f64,
        )
    }
}

/// Run tenant builders `a` and `b` on disjoint halves of a `p`-processor
/// LogP machine (p even, each tenant gets p/2), plus solo on dedicated
/// machines, and report completion times.
pub fn logp_coschedule<PA, PB, FA, FB>(
    params: LogpParams,
    mut a: FA,
    mut b: FB,
    seed: u64,
) -> Result<LogpCoscheduleReport, ModelError>
where
    PA: LogpProcess + 'static,
    PB: LogpProcess + 'static,
    FA: FnMut(usize) -> Vec<PA>,
    FB: FnMut(usize) -> Vec<PB>,
{
    let p = params.p;
    assert!(p.is_multiple_of(2) && p >= 4);
    let half = p / 2;
    let half_params = LogpParams::new_unchecked(half, params.l, params.o, params.g);

    // Solo runs.
    let solo = |procs: Vec<Box<dyn LogpProcess>>| -> Result<Steps, ModelError> {
        let mut m = LogpMachine::with_config(
            half_params,
            LogpConfig {
                seed,
                ..LogpConfig::default()
            },
            procs,
        );
        Ok(m.run()?.makespan)
    };
    let solo_a = solo(
        a(half)
            .into_iter()
            .map(|x| Box::new(x) as Box<dyn LogpProcess>)
            .collect(),
    )?;
    let solo_b = solo(
        b(half)
            .into_iter()
            .map(|x| Box::new(x) as Box<dyn LogpProcess>)
            .collect(),
    )?;

    // Co-scheduled run: tenant A on 0..half, tenant B on half..p.
    let mut procs: Vec<Box<dyn LogpProcess>> = Vec::with_capacity(p);
    for x in a(half) {
        procs.push(Box::new(LogpTenantProc {
            inner: x,
            base: 0,
            vp: half,
        }));
    }
    for x in b(half) {
        procs.push(Box::new(LogpTenantProc {
            inner: x,
            base: half as u32,
            vp: half,
        }));
    }
    let mut m = LogpMachine::with_config(
        params,
        LogpConfig {
            seed,
            ..LogpConfig::default()
        },
        procs,
    );
    let report = m.run()?;
    let halt = |range: std::ops::Range<usize>| -> Steps {
        range
            .map(|i| report.per_proc[i].halt_time)
            .max()
            .unwrap_or(Steps::ZERO)
    };
    Ok(LogpCoscheduleReport {
        tenant_a: halt(0..half),
        tenant_b: halt(half..p),
        solo_a,
        solo_b,
    })
}

/// BSP tenant wrapper: same virtual-id translation, one shared machine.
struct BspTenantProc<P: BspProcess> {
    inner: P,
    base: usize,
    vp: usize,
}

impl<P: BspProcess> BspProcess for BspTenantProc<P> {
    fn superstep(&mut self, ctx: &mut SuperstepCtx<'_>) -> Status {
        // Build a virtual inbox with translated ids.
        let mut inbox: VecDeque<Envelope> = ctx
            .recv_all()
            .into_iter()
            .map(|mut e| {
                e.src = ProcId(e.src.0 - self.base as u32);
                e.dst = ProcId(e.dst.0 - self.base as u32);
                e
            })
            .collect();
        let mut outbox = Vec::new();
        let mut vctx = SuperstepCtx::new(
            ProcId((ctx.me().0 as usize - self.base) as u32),
            self.vp,
            ctx.superstep_index(),
            &mut inbox,
            &mut outbox,
        );
        let status = self.inner.superstep(&mut vctx);
        let (w, _) = vctx.finish();
        // Re-sending below re-charges one unit per message; subtract it
        // from the inner work so the tenant's w is not double-counted.
        ctx.charge(w.saturating_sub(outbox.len() as u64));
        for (dst, payload) in outbox {
            assert!(dst.index() < self.vp, "tenant escaped its partition");
            ctx.send(ProcId((dst.index() + self.base) as u32), payload);
        }
        status
    }
}

/// Per-tenant completion costs from a co-scheduled BSP run.
#[derive(Clone, Debug)]
pub struct BspCoscheduleReport {
    /// Cost accumulated up to and including tenant A's final superstep.
    pub tenant_a: Steps,
    /// Cost up to tenant B's final superstep.
    pub tenant_b: Steps,
    /// Solo costs on dedicated half-size machines.
    pub solo_a: Steps,
    /// Solo cost of tenant B.
    pub solo_b: Steps,
}

impl BspCoscheduleReport {
    /// Interference factors (co-scheduled / solo); > 1 whenever the other
    /// tenant's supersteps are heavier or more numerous.
    pub fn interference(&self) -> (f64, f64) {
        (
            self.tenant_a.get() as f64 / self.solo_a.get().max(1) as f64,
            self.tenant_b.get() as f64 / self.solo_b.get().max(1) as f64,
        )
    }
}

/// Run two BSP tenants through one machine with a shared barrier and report
/// each tenant's completion cost vs its solo run.
pub fn bsp_coschedule<PA, PB, FA, FB>(
    params: BspParams,
    mut a: FA,
    mut b: FB,
) -> Result<BspCoscheduleReport, ModelError>
where
    PA: BspProcess + 'static,
    PB: BspProcess + 'static,
    FA: FnMut(usize) -> Vec<PA>,
    FB: FnMut(usize) -> Vec<PB>,
{
    let p = params.p;
    assert!(p.is_multiple_of(2) && p >= 4);
    let half = p / 2;
    let half_params = BspParams::new(half, params.g, params.l).expect("valid");

    let solo_cost_a = {
        let mut m = BspMachine::new(half_params, a(half));
        m.run(100_000)?.cost
    };
    let solo_cost_b = {
        let mut m = BspMachine::new(half_params, b(half));
        m.run(100_000)?.cost
    };

    let mut procs: Vec<Box<dyn BspProcess>> = Vec::with_capacity(p);
    let mut halts_a = HaltTracker::new();
    let mut halts_b = HaltTracker::new();
    for x in a(half) {
        procs.push(Box::new(halts_a.wrap(BspTenantProc {
            inner: x,
            base: 0,
            vp: half,
        })));
    }
    for x in b(half) {
        procs.push(Box::new(halts_b.wrap(BspTenantProc {
            inner: x,
            base: half,
            vp: half,
        })));
    }
    let mut m = BspMachine::new(params, procs);
    let report = m.run(100_000)?;

    // Tenant completion = cumulative cost through its last active superstep.
    let cum = |last: u64| -> Steps {
        report
            .records
            .iter()
            .take(last as usize + 1)
            .map(|r| r.cost)
            .sum()
    };
    Ok(BspCoscheduleReport {
        tenant_a: cum(halts_a.last_superstep()),
        tenant_b: cum(halts_b.last_superstep()),
        solo_a: solo_cost_a,
        solo_b: solo_cost_b,
    })
}

/// Records the superstep at which each wrapped process halted.
struct HaltTracker {
    cell: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl HaltTracker {
    fn new() -> HaltTracker {
        HaltTracker {
            cell: std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0)),
        }
    }

    fn wrap<P: BspProcess + 'static>(&mut self, inner: P) -> TrackedProc<P> {
        TrackedProc {
            inner,
            cell: self.cell.clone(),
        }
    }

    fn last_superstep(&self) -> u64 {
        self.cell.load(std::sync::atomic::Ordering::Relaxed)
    }
}

struct TrackedProc<P: BspProcess> {
    inner: P,
    cell: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl<P: BspProcess> BspProcess for TrackedProc<P> {
    fn superstep(&mut self, ctx: &mut SuperstepCtx<'_>) -> Status {
        let status = self.inner.superstep(ctx);
        if status == Status::Halt {
            self.cell
                .fetch_max(ctx.superstep_index(), std::sync::atomic::Ordering::Relaxed);
        }
        status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_bsp::FnProcess;
    use bvl_logp::Script;
    use bvl_model::Payload;

    /// A light LogP tenant: one ring round.
    fn light_logp(p: usize) -> Vec<Script> {
        (0..p)
            .map(|i| {
                Script::new([
                    Op::Send {
                        dst: ProcId(((i + 1) % p) as u32),
                        payload: Payload::word(0, i as i64),
                    },
                    Op::Recv,
                ])
            })
            .collect()
    }

    /// A heavy LogP tenant: long compute plus several ring rounds.
    fn heavy_logp(p: usize) -> Vec<Script> {
        (0..p)
            .map(|i| {
                let mut ops = vec![Op::Compute(200)];
                for r in 0..6 {
                    ops.push(Op::Send {
                        dst: ProcId(((i + 1) % p) as u32),
                        payload: Payload::word(r, i as i64),
                    });
                    ops.push(Op::Recv);
                }
                Script::new(ops)
            })
            .collect()
    }

    #[test]
    fn logp_partitions_do_not_interfere() {
        let params = LogpParams::new(16, 8, 1, 2).unwrap();
        let rep = logp_coschedule(params, light_logp, heavy_logp, 1).unwrap();
        assert_eq!(rep.tenant_a, rep.solo_a, "light tenant unaffected");
        assert_eq!(rep.tenant_b, rep.solo_b, "heavy tenant unaffected");
        let (ia, ib) = rep.interference();
        assert_eq!((ia, ib), (1.0, 1.0));
    }

    fn light_bsp(p: usize) -> Vec<FnProcess<i64>> {
        let _ = p;
        (0..p)
            .map(|_| {
                FnProcess::new(0i64, |acc, ctx| {
                    if ctx.superstep_index() > 0 {
                        *acc += ctx.recv().map(|m| m.payload.expect_word()).unwrap_or(0);
                        return Status::Halt;
                    }
                    let right = ProcId(((ctx.me().0 as usize + 1) % ctx.p()) as u32);
                    ctx.send(right, Payload::word(0, 1));
                    Status::Continue
                })
            })
            .collect()
    }

    fn heavy_bsp(p: usize) -> Vec<FnProcess<i64>> {
        let _ = p;
        (0..p)
            .map(|_| {
                FnProcess::new(0i64, |_, ctx| {
                    ctx.charge(500);
                    if ctx.superstep_index() >= 7 {
                        Status::Halt
                    } else {
                        let right = ProcId(((ctx.me().0 as usize + 1) % ctx.p()) as u32);
                        ctx.send(right, Payload::word(0, 1));
                        Status::Continue
                    }
                })
            })
            .collect()
    }

    #[test]
    fn bsp_light_tenant_pays_for_heavy_neighbour() {
        let params = BspParams::new(16, 2, 16).unwrap();
        let rep = bsp_coschedule(params, light_bsp, heavy_bsp).unwrap();
        let (ia, _ib) = rep.interference();
        assert!(
            ia > 2.0,
            "light tenant should suffer from the shared barrier: {ia}"
        );
        // The heavy tenant is barely affected (it dominates every superstep).
        let (_, ib) = rep.interference();
        assert!(ib < 1.2, "heavy tenant interference {ib}");
    }

    #[test]
    fn symmetric_tenants_interfere_symmetrically_on_bsp() {
        let params = BspParams::new(8, 2, 8).unwrap();
        let rep = bsp_coschedule(params, light_bsp, light_bsp).unwrap();
        let (ia, ib) = rep.interference();
        assert!((ia - ib).abs() < 1e-9);
        assert!(ia <= 1.01, "identical tenants add no relative cost: {ia}");
    }
}

//! Phase execution helpers for the BSP-on-LogP protocols.
//!
//! The §4 protocols decompose into globally synchronized phases (CB passes,
//! sorting rounds, routing cycles). Each phase here is executed as a real
//! [`LogpMachine`] run over [`Script`] programs: the machine enforces the
//! `o`/`G`/`L`/capacity semantics and `forbid_stalling` turns any capacity
//! violation — i.e. any bug in a protocol's schedule — into a hard error.
//! Phase makespans are summed by the drivers; the phase boundary itself is
//! justified by the protocols' own synchronization structure (each phase
//! ends with all processors knowing it ended).

use bvl_exec::RunOptions;
use bvl_logp::{LogpConfig, LogpMachine, LogpParams, Op, Script};
use bvl_model::decompose::koenig_color;
use bvl_model::{Envelope, HRelation, ModelError, Steps};

/// Run one phase: a scripted program per processor. Returns the phase
/// makespan and, per processor, the envelopes it acquired (in order).
///
/// `opts` seeds the machine and carries the fault decorator (if any) onto
/// its medium. `forbid_stalling` is downgraded to a measurement when the
/// options inject faults: a stall under an adversarial medium is the
/// adversary's doing, not a schedule bug.
pub fn run_scripts(
    params: LogpParams,
    scripts: Vec<Script>,
    forbid_stalling: bool,
    opts: &RunOptions,
) -> Result<(Steps, Vec<Vec<Envelope>>), ModelError> {
    let config = LogpConfig {
        forbid_stalling: forbid_stalling && !opts.faulted(),
        seed: opts.seed,
        ..LogpConfig::default()
    };
    let mut machine = LogpMachine::with_config(params, config, scripts);
    machine.instrument(opts);
    let report = machine.run()?;
    let received = machine
        .into_programs()
        .into_iter()
        .map(|s| s.into_received())
        .collect();
    Ok((report.makespan, received))
}

/// Off-line optimal routing of a *known* h-relation (§4.2):
///
/// > "By Hall's Theorem, any h-relation can be decomposed into disjoint
/// > 1-relations and, therefore, be routed off-line in optimal
/// > `2o + G(h−1) + L` time in LogP."
///
/// The constructive decomposition is `bvl_model::decompose::koenig_color`
/// (exactly `h` rounds); round `i`'s sends are scheduled at `i·G`, which
/// pipelines the 1-relations at the gap rate without ever exceeding the
/// capacity constraint (at most `⌈L/G⌉` consecutive rounds can be in flight
/// towards one destination). Stalling is forbidden — the schedule's
/// capacity-safety is *checked*, not assumed.
///
/// Returns the makespan and the delivered envelopes per destination.
pub fn route_offline(
    params: LogpParams,
    rel: &HRelation,
    opts: &RunOptions,
) -> Result<(Steps, Vec<Vec<Envelope>>), ModelError> {
    assert_eq!(rel.p(), params.p);
    if rel.is_empty() {
        return Ok((Steps::ZERO, vec![Vec::new(); params.p]));
    }
    let decomp = koenig_color(rel);
    debug_assert!(decomp.validate(rel).is_ok());

    // Each round is a 1-relation and the rounds come in order, so every
    // processor's sends arrive here already sorted by round: push them
    // straight into its script. Aim the submission at round*G; the
    // o-overhead prep starts at the wait target, so submissions land at
    // round*G + o, uniformly shifted — spacing (and capacity) unaffected.
    let in_deg = rel.in_degrees();
    let out_deg = rel.out_degrees();
    let mut ops: Vec<Vec<Op>> = (0..params.p)
        .map(|i| Vec::with_capacity(2 * out_deg[i] + in_deg[i]))
        .collect();
    for (round, idxs) in decomp.rounds().iter().enumerate() {
        for &i in idxs {
            let d = &rel.demands()[i];
            let script = &mut ops[d.src.index()];
            script.push(Op::WaitUntil(Steps(round as u64 * params.g)));
            script.push(Op::Send {
                dst: d.dst,
                payload: d.payload.clone(),
            });
        }
    }
    let scripts: Vec<Script> = ops
        .into_iter()
        .zip(in_deg)
        .map(|(mut script, recvs)| {
            script.extend(std::iter::repeat_n(Op::Recv, recvs));
            Script::new(script)
        })
        .collect();

    run_scripts(params, scripts, true, opts)
}

/// Check that the delivered envelopes reproduce exactly the intended
/// relation (every demand delivered once to its destination).
pub fn verify_delivery(rel: &HRelation, received: &[Vec<Envelope>]) -> Result<(), String> {
    let mut got: Vec<(u32, u32, u32, Vec<i64>)> = Vec::new();
    for (dst, msgs) in received.iter().enumerate() {
        for e in msgs {
            if e.dst.index() != dst {
                return Err(format!("message for {:?} acquired at P{dst}", e.dst));
            }
            got.push((e.dst.0, e.src.0, e.payload.tag, e.payload.data().to_vec()));
        }
    }
    got.sort();
    let want = rel.canonical();
    if got != want {
        return Err(format!(
            "delivered set mismatch: {} delivered vs {} intended",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_exec::RunOptions;
    use bvl_model::rngutil::SeedStream;
    use bvl_model::{Payload, ProcId};

    fn params(p: usize, l: u64, o: u64, g: u64) -> LogpParams {
        LogpParams::new(p, l, o, g).unwrap()
    }

    #[test]
    fn offline_permutation_in_optimal_time() {
        let pr = params(8, 8, 1, 2);
        let rel = HRelation::permutation(&[3, 2, 1, 0, 7, 6, 5, 4]);
        let (t, received) = route_offline(pr, &rel, &RunOptions::new().seed(1)).unwrap();
        verify_delivery(&rel, &received).unwrap();
        // 1 round: submission at o, delivery at o+L, acquisition at o+L+o.
        assert_eq!(t, Steps(2 * pr.o + pr.l));
    }

    #[test]
    fn offline_h_relation_time_scales_linearly() {
        let pr = params(16, 16, 1, 2);
        let s = SeedStream::new(7);
        let mut times = Vec::new();
        for h in [2usize, 4, 8] {
            let mut rng = s.derive("rel", h as u64);
            let rel = HRelation::random_exact(&mut rng, 16, h);
            let (t, received) = route_offline(pr, &rel, &RunOptions::new().seed(2)).unwrap();
            verify_delivery(&rel, &received).unwrap();
            // Within a small constant of 2o + G(h-1) + L (receive-side
            // acquisition serialization can add ~G·h more).
            let bound = 2 * pr.o + pr.g * (h as u64 - 1) + pr.l;
            assert!(t.get() <= 3 * bound, "h={h}: {t:?} vs bound {bound}");
            times.push(t.get());
        }
        assert!(times[2] > times[0], "time must grow with h");
    }

    #[test]
    fn offline_hot_spot_respects_capacity() {
        // 12 messages to one destination: rounds pipeline at gap rate and
        // stalling stays forbidden (the schedule is capacity-safe).
        let pr = params(8, 8, 1, 2); // capacity 4
        let rel = HRelation::hot_spot(8, ProcId(0), 4, 3);
        let (t, received) = route_offline(pr, &rel, &RunOptions::new().seed(3)).unwrap();
        verify_delivery(&rel, &received).unwrap();
        assert!(t.get() >= 12 * pr.g, "12 receives at gap rate");
    }

    #[test]
    fn offline_empty_relation() {
        let pr = params(4, 8, 1, 2);
        let rel = HRelation::new(4);
        let (t, received) = route_offline(pr, &rel, &RunOptions::new().seed(4)).unwrap();
        assert_eq!(t, Steps::ZERO);
        assert!(received.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn verify_delivery_catches_loss() {
        let rel = HRelation::permutation(&[1, 0]);
        let received = vec![Vec::new(), Vec::new()];
        assert!(verify_delivery(&rel, &received).is_err());
    }

    #[test]
    fn run_scripts_reports_makespan() {
        let pr = params(2, 8, 1, 2);
        let scripts = vec![
            Script::new([Op::Send {
                dst: ProcId(1),
                payload: Payload::word(0, 1),
            }]),
            Script::new([Op::Recv]),
        ];
        let (t, received) = run_scripts(pr, scripts, true, &RunOptions::new().seed(5)).unwrap();
        assert_eq!(t, Steps(1 + 8 + 1)); // submit at 1, deliver 9, acquire 10
        assert_eq!(received[1].len(), 1);
    }
}

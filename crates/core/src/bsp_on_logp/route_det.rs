//! Deterministic on-line routing of h-relations in stall-free LogP (§4.2).
//!
//! The protocol (verbatim from the paper, with each step executed as real
//! LogP machine phases):
//!
//! 1. Compute `r` (max messages sent by any processor) and broadcast it
//!    (CB-max); pad every processor to exactly `r` messages with dummies of
//!    nominal destination `p`.
//! 2. Sort all messages by destination and rank them. Small `r`: a
//!    merge-split sorting network (Batcher substituting AKS — see
//!    `sortnet`); large `r` (`≥ 2(p−1)²`): Columnsort substituting Cubesort
//!    (see `columnsort`). Each network round exchanges blocks of `r`
//!    records between matched processors via off-line-decomposed
//!    1-relations.
//! 3. Compute `s` (max messages received by any processor, dummies
//!    excluded) and broadcast it. The segmented max-count over the sorted
//!    sequence is an *ordered* associative aggregation, run through the
//!    range-tree CB.
//! 4. For `0 ≤ i < h = max{r, s}`: a routing cycle delivering all
//!    non-dummy messages with `rank ≡ i (mod h)`. Cycles pipeline with
//!    period `G`; each cycle is a 1-relation (each processor holds at most
//!    one rank per residue class, each destination's messages are
//!    contiguous in rank), so the capacity constraint is never violated —
//!    and the engine *verifies* that via `forbid_stalling`.
//!
//! Total: `T_rout(h) ≤ 2·T_CB + T_sort(r, p) + 2o + (G+2)h + L` (paper
//! equation (2)).

use crate::bsp_on_logp::cb::{run_cb, word_combine, Combine, TreeShape};
use crate::bsp_on_logp::columnsort::columnsort;
use crate::bsp_on_logp::phase::{route_offline, run_scripts};
use crate::bsp_on_logp::record::Record;
use crate::bsp_on_logp::sortnet::{bitonic_stages, merge_split, odd_even_merge_stages};
use crate::slowdown::t_seq_sort;
use bvl_exec::RunOptions;
use bvl_logp::{LogpParams, Op, Script};
use bvl_model::{HRelation, ModelError, Payload, ProcId, Steps};
use bvl_obs::{Registry, Span, SpanKind};
use std::sync::Arc;

/// Which §4.2 sorting scheme Step 2 uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortScheme {
    /// Merge-split sorting network (the AKS role; Batcher's bitonic in
    /// practice). Works for every `r`.
    Network,
    /// Batcher's odd-even merge network: same depth, ~half the comparators
    /// (rounds are partial matchings, so fewer block exchanges per round).
    NetworkOddEven,
    /// Columnsort (the Cubesort role): `O(1)` communication rounds, valid
    /// for `r ≥ 2(p−1)²` and even `r`.
    Columnsort,
    /// Pick Columnsort when its validity condition holds, else the network.
    Auto,
}

/// Per-phase timing breakdown of one deterministic routing run.
#[derive(Clone, Debug)]
pub struct RouteDetReport {
    /// Total routing time (sum of phase makespans).
    pub total: Steps,
    /// Step 1: compute/broadcast `r` (+ local padding charge).
    pub t_r: Steps,
    /// Step 2: local sort + sorting rounds.
    pub t_sort: Steps,
    /// Step 3: compute/broadcast `s`.
    pub t_s: Steps,
    /// Step 4: the `h` pipelined routing cycles.
    pub t_cycles: Steps,
    /// Max out-degree.
    pub r: u64,
    /// Max in-degree.
    pub s: u64,
    /// `h = max{r, s}`.
    pub h: u64,
    /// Communication rounds used by the sorting phase.
    pub sort_rounds: usize,
    /// Which scheme step 2 actually used.
    pub scheme_used: SortScheme,
}

/// The ordered segmented max-count aggregate for Step 3 (see `seg_combine`).
/// Encoding: `[empty, pref_dest, pref_cnt, suf_dest, suf_cnt, best]`.
fn seg_payload(empty: bool, pd: i64, pc: i64, sd: i64, sc: i64, best: i64) -> Payload {
    Payload::words(1, &[i64::from(empty), pd, pc, sd, sc, best])
}

/// Local aggregate of one sorted block (dummies excluded). `best` counts the
/// longest run *within* the block — a lower bound on the true segment size
/// that the prefix/suffix extension mechanics of `seg_combine` grow to the
/// exact value. Because blocks are sorted, "uniform" is simply
/// `pref_dest == suf_dest`.
fn seg_local(block: &[Record], p: usize) -> Payload {
    let real: Vec<&Record> = block.iter().filter(|r| !r.is_dummy(p)).collect();
    if real.is_empty() {
        return seg_payload(true, 0, 0, 0, 0, 0);
    }
    let pd = real[0].dest as i64;
    let sd = real[real.len() - 1].dest as i64;
    let mut best = 0i64;
    let mut pref = 0i64;
    let mut run = 0i64;
    let mut run_dest = pd;
    for r in &real {
        let d = r.dest as i64;
        if d == run_dest {
            run += 1;
        } else {
            if run_dest == pd {
                pref = run;
            }
            best = best.max(run);
            run_dest = d;
            run = 1;
        }
    }
    best = best.max(run);
    let suf = run;
    if pd == sd {
        pref = real.len() as i64; // uniform block: one run spans it all
    }
    seg_payload(false, pd, pref, sd, suf, best)
}

/// Associative (non-commutative) combiner over `seg_payload` aggregates.
fn seg_combine() -> Combine {
    Arc::new(|a: &Payload, b: &Payload| {
        let (ad, bd) = (a.data(), b.data());
        let (ae, apd, apc, asd, asc, ab) = (ad[0] != 0, ad[1], ad[2], ad[3], ad[4], ad[5]);
        let (be, bpd, bpc, bsd, bsc, bb) = (bd[0] != 0, bd[1], bd[2], bd[3], bd[4], bd[5]);
        if ae {
            return b.clone();
        }
        if be {
            return a.clone();
        }
        let a_uniform = apd == asd;
        let b_uniform = bpd == bsd;
        // The run bridging the boundary (a real contiguous run of the
        // concatenation whenever the destinations match).
        let joined = if asd == bpd { asc + bpc } else { 0 };
        let pref = if a_uniform && apd == bpd { apc + bpc } else { apc };
        let suf = if b_uniform && bsd == asd { bsc + asc } else { bsc };
        // `best` tracks the longest run seen so far; every candidate is a
        // real contiguous run of the concatenation, so max never overcounts,
        // and the pref/suf chains guarantee the true maximum is eventually
        // a candidate.
        let best = ab.max(bb).max(joined).max(pref).max(suf);
        seg_payload(false, apd, pref, bsd, suf, best)
    })
}

/// Final `s` from the root aggregate (`best` already dominates the boundary
/// runs by construction).
fn seg_finish(agg: &Payload) -> u64 {
    if agg.data()[0] != 0 {
        return 0;
    }
    agg.data()[5].max(0) as u64
}

/// Step 2 (network scheme): run the merge-split Batcher network; each round
/// is an off-line-decomposed block exchange on the live machine.
fn sort_network(
    params: LogpParams,
    mut blocks: Vec<Vec<Record>>,
    opts: &RunOptions,
    odd_even: bool,
    registry: &Registry,
    base: Steps,
) -> Result<(Steps, usize, Vec<Vec<Record>>), ModelError> {
    let p = params.p;
    let r = blocks[0].len();
    let rounds = if odd_even {
        odd_even_merge_stages(p)
    } else {
        bitonic_stages(p)
    };
    let mut time = Steps::ZERO;
    for (round_idx, round) in rounds.iter().enumerate() {
        let round_start = time;
        // Block exchange: every matched pair swaps full blocks.
        let mut rel = HRelation::new(p);
        for &(lo, hi, _) in round {
            for (down, up) in blocks[lo][..r].iter().zip(&blocks[hi][..r]) {
                rel.push(ProcId::from(lo), ProcId::from(hi), down.to_payload());
                rel.push(ProcId::from(hi), ProcId::from(lo), up.to_payload());
            }
        }
        let round_opts = opts.clone().seed(opts.seed.wrapping_add(round_idx as u64));
        let (t, received) = route_offline(params, &rel, &round_opts)?;
        time += t;
        // Local merge-split (all processors in parallel): charge 2r.
        time += Steps(2 * r as u64);
        for &(lo, hi, asc) in round {
            // Messages received AT lo came FROM hi (hi's old block) and vice
            // versa; arrival order follows the decomposition schedule, so
            // re-sort before merging (merge-split needs sorted inputs).
            let decode = |msgs: &[bvl_model::Envelope]| -> Vec<Record> {
                let mut v: Vec<Record> =
                    msgs.iter().map(|e| Record::from_payload(&e.payload)).collect();
                // Keys are unique (uids are), so unstable is exact.
                v.sort_unstable();
                v
            };
            let old_hi = decode(&received[lo]);
            let old_lo = decode(&received[hi]);
            let (mn, mx) = merge_split(&old_lo, &old_hi);
            if asc {
                blocks[lo] = mn;
                blocks[hi] = mx;
            } else {
                blocks[lo] = mx;
                blocks[hi] = mn;
            }
        }
        registry.span(
            Span::new(SpanKind::SortRound, base + round_start, base + time)
                .at_index(round_idx as u64),
        );
    }
    Ok((time, rounds.len(), blocks))
}

/// Route an arbitrary (unknown-degree) h-relation deterministically on a
/// stall-free LogP machine, returning the per-phase timing breakdown. The
/// delivered messages are checked against the intended relation.
///
/// Requires `p = params.p` to be a power of two (the sorting network's
/// matching structure; experiments use power-of-two machines, as is
/// conventional).
///
/// Observability comes through `opts`: sorting rounds and the pipelined
/// cycle phase are emitted as [`SpanKind::SortRound`] /
/// [`SpanKind::ColumnsortRound`] / [`SpanKind::RouteCycles`] spans into
/// `opts.registry`, offset by `opts.clock_base` (the caller's virtual-clock
/// position of the routing phase); `opts.seed` drives every randomized
/// sub-phase.
pub fn route_deterministic(
    params: LogpParams,
    rel: &HRelation,
    scheme: SortScheme,
    opts: &RunOptions,
) -> Result<RouteDetReport, ModelError> {
    let seed = opts.seed;
    let registry = &opts.registry;
    let base = opts.clock_base;
    let p = params.p;
    assert_eq!(rel.p(), p);
    assert!(p.is_power_of_two(), "deterministic router needs p = 2^k");
    if rel.is_empty() {
        return Ok(RouteDetReport {
            total: Steps::ZERO,
            t_r: Steps::ZERO,
            t_sort: Steps::ZERO,
            t_s: Steps::ZERO,
            t_cycles: Steps::ZERO,
            r: 0,
            s: 0,
            h: 0,
            sort_rounds: 0,
            scheme_used: scheme,
        });
    }

    // ---- Step 1: r via CB(max), then dummy padding. -------------------
    let out_deg = rel.out_degrees();
    let values: Vec<Payload> = out_deg.iter().map(|&d| Payload::word(0, d as i64)).collect();
    let joins = vec![Steps::ZERO; p];
    let cb_r = run_cb(
        params,
        TreeShape::Heap,
        values,
        word_combine(i64::max),
        &joins,
        &opts.subphase(),
    )?;
    let r = cb_r.results[0].expect_word() as u64;
    debug_assert_eq!(r as usize, rel.max_out_degree());
    let mut r_pad = r as usize;
    if r_pad % 2 == 1 {
        r_pad += 1; // columnsort wants even block length; harmless otherwise
    }
    let t_r = cb_r.makespan + Steps(r_pad as u64); // + local padding charge

    // Build padded blocks at the sources.
    let mut blocks: Vec<Vec<Record>> = vec![Vec::with_capacity(r_pad); p];
    let mut dummy_uid = rel.len() as u64;
    for (uid, d) in rel.demands().iter().enumerate() {
        blocks[d.src.index()].push(Record {
            dest: d.dst.0,
            uid: uid as u64,
            payload: d.payload.clone(),
        });
    }
    for block in &mut blocks {
        while block.len() < r_pad {
            block.push(Record::dummy(p, dummy_uid));
            dummy_uid += 1;
        }
    }

    // ---- Step 2: sort by destination. ----------------------------------
    // Local sort charge (all processors in parallel).
    let local_sort = Steps(t_seq_sort(r_pad as u64, p as u64));
    for block in &mut blocks {
        block.sort();
    }
    let use_columnsort = match scheme {
        SortScheme::Network | SortScheme::NetworkOddEven => false,
        SortScheme::Columnsort => true,
        SortScheme::Auto => p >= 2 && r_pad >= 2 * (p - 1) * (p - 1),
    };
    let sort_base = base + t_r + local_sort;
    let (t_net, sort_rounds, blocks) = if use_columnsort {
        columnsort(
            params,
            blocks,
            &opts.subphase().seed(seed.wrapping_add(1000)),
            registry,
            sort_base,
        )?
    } else {
        sort_network(
            params,
            blocks,
            &opts.subphase().seed(seed.wrapping_add(2000)),
            scheme == SortScheme::NetworkOddEven,
            registry,
            sort_base,
        )?
    };
    let t_sort = local_sort + t_net;
    let scheme_used = if use_columnsort {
        SortScheme::Columnsort
    } else {
        SortScheme::Network
    };

    // Sorted invariant.
    debug_assert!({
        let flat: Vec<(u32, u64)> = blocks.iter().flatten().map(|rc| rc.key()).collect();
        flat.windows(2).all(|w| w[0] <= w[1])
    });

    // ---- Step 3: s via ordered range-tree CB. ---------------------------
    let seg_values: Vec<Payload> = blocks.iter().map(|b| seg_local(b, p)).collect();
    let cb_s = run_cb(
        params,
        TreeShape::Range,
        seg_values,
        seg_combine(),
        &joins,
        &opts.subphase().seed(seed.wrapping_add(3000)),
    )?;
    let s = seg_finish(&cb_s.results[0]);
    debug_assert_eq!(s as usize, rel.max_in_degree());
    let t_s = cb_s.makespan + Steps(r_pad as u64); // + local aggregate scan

    // ---- Step 4: h pipelined routing cycles. ----------------------------
    let h = r.max(s).max(1);
    let mut scripts: Vec<Vec<Op>> = vec![Vec::new(); p];
    let in_deg = rel.in_degrees();
    for (j, block) in blocks.iter().enumerate() {
        // Sends in cycle order (block is rank-sorted already, and ranks are
        // consecutive, so residues appear in increasing cycle order after a
        // stable sort by cycle).
        let mut plan: Vec<(u64, &Record)> = block
            .iter()
            .enumerate()
            .filter(|(_, rc)| !rc.is_dummy(p))
            .map(|(q, rc)| (((j * r_pad + q) as u64) % h, rc))
            .collect();
        plan.sort_by_key(|&(cycle, _)| cycle);
        for (cycle, rc) in plan {
            scripts[j].push(Op::WaitUntil(Steps(cycle * params.g)));
            scripts[j].push(Op::Send {
                dst: ProcId(rc.dest),
                payload: rc.to_payload(),
            });
        }
        scripts[j].extend(std::iter::repeat_n(Op::Recv, in_deg[j]));
    }
    let scripts: Vec<Script> = scripts.into_iter().map(Script::new).collect();
    let (t_cycles, received) =
        run_scripts(params, scripts, true, &opts.subphase().seed(seed.wrapping_add(4000)))?;

    // Verify the delivery reproduces the relation exactly.
    let unpacked: Vec<Vec<bvl_model::Envelope>> = received
        .into_iter()
        .map(|msgs| {
            msgs.into_iter()
                .map(|mut e| {
                    e.payload = Record::from_payload(&e.payload).payload;
                    e
                })
                .collect()
        })
        .collect();
    // Source information was carried implicitly: rebuild against demands by
    // payload multiset (src of the final hop is the sorted holder, not the
    // original sender, so compare dst+payload only).
    verify_routing(rel, &unpacked).map_err(ModelError::Internal)?;

    let total = t_r + t_sort + t_s + t_cycles;
    registry.span(Span::new(
        SpanKind::RouteCycles,
        base + t_r + t_sort + t_s,
        base + total,
    ));
    Ok(RouteDetReport {
        total,
        t_r,
        t_sort,
        t_s,
        t_cycles,
        r,
        s,
        h,
        sort_rounds,
        scheme_used,
    })
}

/// Delivery check ignoring the physical last-hop source (the protocol
/// routes via sorted holders, so the envelope's `src` is the holder).
fn verify_routing(rel: &HRelation, received: &[Vec<bvl_model::Envelope>]) -> Result<(), String> {
    let mut got: Vec<(u32, u32, &[i64])> = Vec::with_capacity(rel.len());
    for (dst, msgs) in received.iter().enumerate() {
        for e in msgs {
            if e.dst.index() != dst {
                return Err(format!("message for {:?} acquired at P{dst}", e.dst));
            }
            got.push((e.dst.0, e.payload.tag, e.payload.data()));
        }
    }
    got.sort_unstable();
    let mut want: Vec<(u32, u32, &[i64])> = rel
        .demands()
        .iter()
        .map(|d| (d.dst.0, d.payload.tag, d.payload.data()))
        .collect();
    want.sort_unstable();
    if got != want {
        return Err(format!(
            "routed multiset mismatch: {} delivered vs {} intended",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvl_model::rngutil::SeedStream;

    fn params(p: usize, l: u64, o: u64, g: u64) -> LogpParams {
        LogpParams::new(p, l, o, g).unwrap()
    }

    fn seeded(seed: u64) -> RunOptions {
        RunOptions::new().seed(seed)
    }

    #[test]
    fn seg_local_counts_runs() {
        let block = vec![
            Record { dest: 1, uid: 0, payload: Payload::tagged(0) },
            Record { dest: 1, uid: 1, payload: Payload::tagged(0) },
            Record { dest: 2, uid: 2, payload: Payload::tagged(0) },
            Record { dest: 3, uid: 3, payload: Payload::tagged(0) },
            Record { dest: 3, uid: 4, payload: Payload::tagged(0) },
            Record { dest: 3, uid: 5, payload: Payload::tagged(0) },
        ];
        let agg = seg_local(&block, 8);
        // pref = (1, 2), suf = (3, 3), best run = 3 (the run of dest 3).
        assert_eq!(agg.data(), &[0, 1, 2, 3, 3, 3]);
    }

    #[test]
    fn seg_combine_matches_bruteforce() {
        // Randomized: split a sorted dest sequence into blocks, fold with
        // seg_combine, compare seg_finish with the true max run length.
        let mut rng = SeedStream::new(9).derive("seg", 0);
        for trial in 0..50 {
            use rand::Rng;
            let p = 8usize;
            let n = rng.gen_range(1..40);
            let mut dests: Vec<u32> = (0..n).map(|_| rng.gen_range(0..p as u32)).collect();
            dests.sort();
            let records: Vec<Record> = dests
                .iter()
                .enumerate()
                .map(|(i, &d)| Record { dest: d, uid: i as u64, payload: Payload::tagged(0) })
                .collect();
            // True answer.
            let mut counts = vec![0u64; p];
            for &d in &dests {
                counts[d as usize] += 1;
            }
            let truth = counts.into_iter().max().unwrap();
            // Fold over random block sizes.
            let combine = seg_combine();
            let mut acc = seg_payload(true, 0, 0, 0, 0, 0);
            let mut i = 0;
            while i < records.len() {
                let len = rng.gen_range(1..=records.len() - i);
                let agg = seg_local(&records[i..i + len], p);
                acc = combine(&acc, &agg);
                i += len;
            }
            assert_eq!(seg_finish(&acc), truth, "trial {trial}, dests {dests:?}");
        }
    }

    #[test]
    fn routes_random_relations() {
        let pr = params(8, 8, 1, 2);
        let s = SeedStream::new(11);
        for (i, h) in [1usize, 2, 4].into_iter().enumerate() {
            let mut rng = s.derive("rel", i as u64);
            let rel = HRelation::random_exact(&mut rng, 8, h);
            let rep = route_deterministic(pr, &rel, SortScheme::Network, &seeded(77)).unwrap();
            assert_eq!(rep.r, h as u64);
            assert_eq!(rep.s, h as u64);
            assert!(rep.total > Steps::ZERO);
        }
    }

    #[test]
    fn odd_even_network_routes_equally_well() {
        let pr = params(16, 16, 1, 4);
        let mut rng = SeedStream::new(21).derive("rel", 0);
        let rel = HRelation::random_uniform(&mut rng, 16, 3);
        let a = route_deterministic(pr, &rel, SortScheme::Network, &seeded(90)).unwrap();
        let b = route_deterministic(pr, &rel, SortScheme::NetworkOddEven, &seeded(90)).unwrap();
        assert_eq!(a.h, b.h);
        // Same depth, fewer exchanges: odd-even never slower in t_sort.
        assert!(b.t_sort <= a.t_sort, "oe {:?} vs bitonic {:?}", b.t_sort, a.t_sort);
    }

    #[test]
    fn routes_irregular_relation_with_unknown_degree() {
        let pr = params(16, 16, 1, 4);
        let mut rng = SeedStream::new(12).derive("rel", 0);
        let rel = HRelation::random_uniform(&mut rng, 16, 3);
        let rep = route_deterministic(pr, &rel, SortScheme::Network, &seeded(78)).unwrap();
        assert_eq!(rep.r, 3);
        assert_eq!(rep.s as usize, rel.max_in_degree());
        assert_eq!(rep.h, rep.r.max(rep.s));
    }

    #[test]
    fn routes_hot_spot_relation() {
        let pr = params(8, 8, 1, 2);
        let rel = HRelation::hot_spot(8, ProcId(5), 7, 2);
        let rep = route_deterministic(pr, &rel, SortScheme::Network, &seeded(79)).unwrap();
        assert_eq!(rep.s, 14);
        assert_eq!(rep.r, 2);
        assert_eq!(rep.h, 14);
    }

    #[test]
    fn broadcast_relation_routes() {
        let pr = params(8, 8, 1, 2);
        let rel = HRelation::broadcast(8, ProcId(0));
        let rep = route_deterministic(pr, &rel, SortScheme::Network, &seeded(80)).unwrap();
        assert_eq!(rep.r, 7);
        assert_eq!(rep.s, 1);
    }

    #[test]
    fn cycle_phase_is_linear_in_h() {
        let pr = params(16, 16, 1, 2);
        let s = SeedStream::new(13);
        let mut cyc = Vec::new();
        for h in [2usize, 8] {
            let mut rng = s.derive("rel", h as u64);
            let rel = HRelation::random_exact(&mut rng, 16, h);
            let rep = route_deterministic(pr, &rel, SortScheme::Network, &seeded(81)).unwrap();
            // Step 4 within a constant of 2o + (G+2)h + L.
            let bound = 2 * pr.o + (pr.g + 2) * h as u64 + pr.l;
            assert!(
                rep.t_cycles.get() <= 3 * bound,
                "h={h}: cycles {:?} vs bound {bound}",
                rep.t_cycles
            );
            cyc.push(rep.t_cycles.get());
        }
        assert!(cyc[1] > cyc[0]);
    }

    #[test]
    fn empty_relation_is_free() {
        let pr = params(4, 8, 1, 2);
        let rel = HRelation::new(4);
        let rep = route_deterministic(pr, &rel, SortScheme::Auto, &seeded(82)).unwrap();
        assert_eq!(rep.total, Steps::ZERO);
    }
}

//! Decomposition of h-relations into 1-relations.
//!
//! Paper §4.2: "By Hall's Theorem, any h-relation can be decomposed into
//! disjoint 1-relations and, therefore, be routed off-line in optimal
//! `2o + G(h−1) + L` time in LogP." This module makes that theorem
//! constructive, two ways:
//!
//! * [`euler_split`] — pad the bipartite (source, destination) multigraph to
//!   `H`-regular with `H` the next power of two ≥ h, then recursively halve
//!   it along Euler circuits. Guaranteed `O(E log h)` time and at most
//!   `2h − 1` rounds (exactly `H ≤ 2h` before dummy removal, minus any rounds
//!   left empty).
//! * [`koenig_color`] — exact König edge coloring by alternating-path color
//!   swaps: exactly `h` rounds, the optimum Hall's theorem promises, in
//!   `O(p·h + |E|·h/64)` time when few swaps are needed (the relations the
//!   routers build) and `O(|E|·p)` at worst.
//!
//! Both return a [`Decomposition`]: a partition of demand indices into rounds
//! such that within a round every processor sends at most one and receives at
//! most one message (a partial permutation).

use crate::hrelation::HRelation;

/// A partition of the demands of an [`HRelation`] into 1-relation rounds.
#[derive(Clone, Debug)]
pub struct Decomposition {
    rounds: Vec<Vec<usize>>,
}

impl Decomposition {
    /// The rounds, each a list of demand indices forming a partial permutation.
    pub fn rounds(&self) -> &[Vec<usize>] {
        &self.rounds
    }

    /// Number of rounds.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Check that `self` is a valid decomposition of `rel`:
    /// every demand index appears exactly once, and every round is a
    /// 1-relation. Returns a human-readable violation if not.
    pub fn validate(&self, rel: &HRelation) -> Result<(), String> {
        let n = rel.len();
        let mut seen = vec![false; n];
        for (r, round) in self.rounds.iter().enumerate() {
            let mut src_used = vec![false; rel.p()];
            let mut dst_used = vec![false; rel.p()];
            for &idx in round {
                if idx >= n {
                    return Err(format!("round {r}: demand index {idx} out of range"));
                }
                if seen[idx] {
                    return Err(format!("demand {idx} appears twice"));
                }
                seen[idx] = true;
                let d = &rel.demands()[idx];
                if src_used[d.src.index()] {
                    return Err(format!("round {r}: source {:?} used twice", d.src));
                }
                if dst_used[d.dst.index()] {
                    return Err(format!("round {r}: dest {:?} used twice", d.dst));
                }
                src_used[d.src.index()] = true;
                dst_used[d.dst.index()] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("demand {missing} not scheduled"));
        }
        Ok(())
    }
}

/// Edge of the internal bipartite multigraph. `demand` is `usize::MAX` for
/// padding (dummy) edges.
#[derive(Clone, Copy, Debug)]
struct Edge {
    left: usize,
    right: usize,
    demand: usize,
}

const DUMMY: usize = usize::MAX;

/// Decompose via recursive Euler splitting (see module docs).
///
/// Produces at most `next_power_of_two(h)` rounds; empty rounds (all-dummy
/// matchings) are dropped.
pub fn euler_split(rel: &HRelation) -> Decomposition {
    let p = rel.p();
    let h = rel.degree();
    if h == 0 {
        return Decomposition { rounds: Vec::new() };
    }
    let target = h.next_power_of_two();

    // Build edges and pad both sides to `target`-regular.
    let mut edges: Vec<Edge> = rel
        .demands()
        .iter()
        .enumerate()
        .map(|(i, d)| Edge {
            left: d.src.index(),
            right: d.dst.index(),
            demand: i,
        })
        .collect();
    let mut ldef: Vec<usize> = rel.out_degrees().iter().map(|&d| target - d).collect();
    let mut rdef: Vec<usize> = rel.in_degrees().iter().map(|&d| target - d).collect();
    // Greedy pairing of deficiencies. Total left deficiency equals total
    // right deficiency because both sides sum to p*target - |E|.
    let mut ri = 0usize;
    for (li, ld) in ldef.iter_mut().enumerate() {
        while *ld > 0 {
            while ri < p && rdef[ri] == 0 {
                ri += 1;
            }
            debug_assert!(ri < p, "deficiency mismatch");
            let take = (*ld).min(rdef[ri]);
            for _ in 0..take {
                edges.push(Edge {
                    left: li,
                    right: ri,
                    demand: DUMMY,
                });
            }
            *ld -= take;
            rdef[ri] -= take;
        }
    }

    let mut rounds: Vec<Vec<usize>> = Vec::with_capacity(target);
    split_rec(p, edges, target, &mut rounds);
    rounds.retain(|r| !r.is_empty());
    Decomposition { rounds }
}

/// Recursively split a `deg`-regular bipartite multigraph (`deg` a power of
/// two) until 1-regular, collecting real-demand matchings into `out`.
fn split_rec(p: usize, edges: Vec<Edge>, deg: usize, out: &mut Vec<Vec<usize>>) {
    if deg == 1 {
        let round: Vec<usize> = edges
            .iter()
            .filter(|e| e.demand != DUMMY)
            .map(|e| e.demand)
            .collect();
        out.push(round);
        return;
    }
    let (a, b) = halve(p, &edges);
    split_rec(p, a, deg / 2, out);
    split_rec(p, b, deg / 2, out);
}

/// Split an even-degree bipartite multigraph into two halves with exactly
/// half the degree at every vertex, by alternating edges along Euler circuits
/// (every circuit in a bipartite graph has even length, so alternation is
/// consistent around each circuit).
fn halve(p: usize, edges: &[Edge]) -> (Vec<Edge>, Vec<Edge>) {
    // Vertices: 0..p are left, p..2p are right.
    let nv = 2 * p;
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nv]; // (other vertex, edge id)
    for (i, e) in edges.iter().enumerate() {
        adj[e.left].push((p + e.right, i));
        adj[p + e.right].push((e.left, i));
    }
    let mut ptr = vec![0usize; nv];
    let mut used = vec![false; edges.len()];
    let mut side = vec![false; edges.len()]; // false -> A, true -> B

    // Iterative Hierholzer over every component; alternate sides along the
    // traversal order of each closed circuit.
    for start in 0..nv {
        while ptr[start] < adj[start].len() {
            // Trace one closed circuit from `start` (all degrees are even, so
            // every maximal trail from `start` returns to `start`).
            let mut circuit_edges: Vec<usize> = Vec::new();
            let mut v = start;
            loop {
                // Advance past used edges.
                while ptr[v] < adj[v].len() && used[adj[v][ptr[v]].1] {
                    ptr[v] += 1;
                }
                if ptr[v] == adj[v].len() {
                    break; // circuit closed back at a saturated vertex
                }
                let (w, eid) = adj[v][ptr[v]];
                used[eid] = true;
                circuit_edges.push(eid);
                v = w;
                if v == start {
                    // Closed a circuit; assign alternating sides and look for
                    // further circuits from `start`.
                    for (k, &eid) in circuit_edges.iter().enumerate() {
                        side[eid] = k % 2 == 1;
                    }
                    circuit_edges.clear();
                }
            }
            debug_assert!(
                circuit_edges.is_empty(),
                "trail did not close into a circuit (odd degree?)"
            );
        }
    }

    let mut a = Vec::with_capacity(edges.len() / 2);
    let mut b = Vec::with_capacity(edges.len() / 2);
    for (i, e) in edges.iter().enumerate() {
        if side[i] {
            b.push(*e);
        } else {
            a.push(*e);
        }
    }
    (a, b)
}

/// Exact König edge coloring: decompose into exactly `h` rounds.
///
/// For each demand in turn, pick the smallest color free at its source and at
/// its destination; when they differ, swap colors along the alternating path
/// so both endpoints free a common color. Bipartiteness guarantees the path
/// never cycles back, so `h` colors always suffice (König, 1916).
///
/// The color table is one flat `2p × h` array of edge ids, and each vertex
/// keeps a bitset of its free colors, so the smallest free color is a
/// `trailing_zeros` over `⌈h/64⌉` words. Cost: `O(p·h)` to set up the table,
/// `O(h/64)` per demand to find its colors, plus the swapped path, whose
/// length is at most `2p`. Random and sorting-network relations rarely
/// swap, so in practice it runs in `O(p·h + |E|·h/64)`; the worst case is
/// `O(|E|·p)`.
pub fn koenig_color(rel: &HRelation) -> Decomposition {
    let p = rel.p();
    let h = rel.degree();
    if h == 0 {
        return Decomposition { rounds: Vec::new() };
    }
    assert!(rel.len() < NONE as usize, "too many demands for u32 edge ids");
    let mut table = ColorTable::new(2 * p, h);
    let mut edge_color: Vec<usize> = vec![usize::MAX; rel.len()];
    // (source vertex, destination vertex): left 0..p, right p..2p.
    let ends: Vec<(usize, usize)> = rel
        .demands()
        .iter()
        .map(|d| (d.src.index(), p + d.dst.index()))
        .collect();
    let mut path: Vec<usize> = Vec::new();

    for (e, &(u, v)) in ends.iter().enumerate() {
        let a = table.smallest_free(u);
        let b = table.smallest_free(v);
        if a != b {
            // Collect the maximal (a, b)-alternating path starting at v
            // along color a. In a properly colored graph this component is
            // a simple path (v has no b-edge, so v is an endpoint), and
            // bipartiteness guarantees it never reaches u: arrivals at
            // source-side vertices always use color a, which is free at u.
            path.clear();
            let mut cur = v;
            let mut want = a;
            while let Some(f) = table.edge(cur, want) {
                path.push(f);
                cur = if ends[f].0 == cur { ends[f].1 } else { ends[f].0 };
                want = if want == a { b } else { a };
            }
            // Swap colors a <-> b along the path: clear all table entries
            // first, then reinsert with swapped colors (the swapped coloring
            // is proper, so reinsertion never collides).
            for &f in &path {
                let c = edge_color[f];
                table.release(ends[f].0, c);
                table.release(ends[f].1, c);
            }
            for &f in &path {
                let c = if edge_color[f] == a { b } else { a };
                edge_color[f] = c;
                table.assign(ends[f].0, c, f);
                table.assign(ends[f].1, c, f);
            }
        }
        table.assign(u, a, e);
        table.assign(v, a, e);
        edge_color[e] = a;
    }

    let mut rounds: Vec<Vec<usize>> = vec![Vec::new(); h];
    for (e, &c) in edge_color.iter().enumerate() {
        rounds[c].push(e);
    }
    rounds.retain(|r| !r.is_empty());
    Decomposition { rounds }
}

/// Empty slot of a [`ColorTable`].
const NONE: u32 = u32::MAX;

/// `koenig_color`'s state: which edge holds each (vertex, color) slot, and
/// per vertex a bitset of its free colors (bit set = free).
struct ColorTable {
    colors: usize,
    words: usize,
    edges: Vec<u32>,
    free: Vec<u64>,
}

impl ColorTable {
    fn new(vertices: usize, colors: usize) -> ColorTable {
        let words = colors.div_ceil(64);
        let mut free = vec![!0u64; vertices * words];
        let tail_bits = colors % 64;
        if tail_bits > 0 {
            // Colors at or past `colors` are never free.
            let tail = (1u64 << tail_bits) - 1;
            for w in free.iter_mut().skip(words - 1).step_by(words) {
                *w = tail;
            }
        }
        ColorTable {
            colors,
            words,
            edges: vec![NONE; vertices * colors],
            free,
        }
    }

    /// The smallest color not used at `v`.
    #[inline]
    fn smallest_free(&self, v: usize) -> usize {
        let bits = &self.free[v * self.words..(v + 1) * self.words];
        let w = bits.iter().position(|&b| b != 0).expect("degree bound");
        w * 64 + bits[w].trailing_zeros() as usize
    }

    /// The edge colored `c` at `v`, if any.
    #[inline]
    fn edge(&self, v: usize, c: usize) -> Option<usize> {
        let e = self.edges[v * self.colors + c];
        (e != NONE).then_some(e as usize)
    }

    #[inline]
    fn assign(&mut self, v: usize, c: usize, e: usize) {
        debug_assert_eq!(self.edges[v * self.colors + c], NONE);
        self.edges[v * self.colors + c] = e as u32;
        self.free[v * self.words + c / 64] &= !(1u64 << (c % 64));
    }

    #[inline]
    fn release(&mut self, v: usize, c: usize) {
        self.edges[v * self.colors + c] = NONE;
        self.free[v * self.words + c / 64] |= 1u64 << (c % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProcId;
    use crate::rngutil::SeedStream;

    fn check_both(rel: &HRelation) {
        let d1 = euler_split(rel);
        d1.validate(rel).expect("euler_split invalid");
        assert!(d1.num_rounds() <= rel.degree().next_power_of_two().max(1));
        let d2 = koenig_color(rel);
        d2.validate(rel).expect("koenig invalid");
        assert!(d2.num_rounds() <= rel.degree());
    }

    #[test]
    fn empty_relation() {
        let rel = HRelation::new(4);
        assert_eq!(euler_split(&rel).num_rounds(), 0);
        assert_eq!(koenig_color(&rel).num_rounds(), 0);
    }

    #[test]
    fn permutation_is_single_round() {
        let rel = HRelation::permutation(&[3, 0, 1, 2]);
        let d = euler_split(&rel);
        d.validate(&rel).unwrap();
        assert_eq!(d.num_rounds(), 1);
        let k = koenig_color(&rel);
        assert_eq!(k.num_rounds(), 1);
    }

    #[test]
    fn exact_relations_decompose() {
        let s = SeedStream::new(11);
        for (p, h) in [(4, 2), (8, 3), (16, 5), (9, 7), (32, 8)] {
            let mut rng = s.derive("rel", (p * 100 + h) as u64);
            let rel = HRelation::random_exact(&mut rng, p, h);
            check_both(&rel);
        }
    }

    #[test]
    fn irregular_relations_decompose() {
        let s = SeedStream::new(12);
        for (p, m) in [(8, 1), (8, 4), (16, 6), (5, 3)] {
            let mut rng = s.derive("rel", (p * 100 + m) as u64);
            let rel = HRelation::random_uniform(&mut rng, p, m);
            check_both(&rel);
        }
    }

    #[test]
    fn hot_spot_decomposes_into_indegree_rounds() {
        let rel = HRelation::hot_spot(8, ProcId(0), 7, 3);
        let k = koenig_color(&rel);
        k.validate(&rel).unwrap();
        assert_eq!(k.num_rounds(), 21); // in-degree dominates
        let e = euler_split(&rel);
        e.validate(&rel).unwrap();
    }

    #[test]
    fn all_to_all_decomposes() {
        let rel = HRelation::all_to_all(7);
        check_both(&rel);
        let k = koenig_color(&rel);
        assert_eq!(k.num_rounds(), 6);
    }

    #[test]
    fn koenig_round_count_is_exactly_h_on_regular() {
        let mut rng = SeedStream::new(13).derive("r", 0);
        let rel = HRelation::random_exact(&mut rng, 12, 6);
        let k = koenig_color(&rel);
        assert_eq!(k.num_rounds(), 6);
    }

    #[test]
    fn validate_catches_duplicate_and_missing() {
        let rel = HRelation::permutation(&[1, 0]);
        let bad = Decomposition {
            rounds: vec![vec![0, 0]],
        };
        assert!(bad.validate(&rel).is_err());
        let missing = Decomposition { rounds: vec![vec![0]] };
        assert!(missing.validate(&rel).is_err());
    }

    #[test]
    fn validate_catches_non_matching_round() {
        // Two demands from the same source in one round.
        let mut rel = HRelation::new(3);
        rel.push(ProcId(0), ProcId(1), crate::msg::Payload::tagged(0));
        rel.push(ProcId(0), ProcId(2), crate::msg::Payload::tagged(0));
        let bad = Decomposition {
            rounds: vec![vec![0, 1]],
        };
        assert!(bad.validate(&rel).is_err());
    }
}

//! Cube-connected cycles, Table 1 row 4: `γ = δ = log p`.

use crate::topology::Topology;

/// A `k`-dimensional cube-connected cycles network: each hypercube corner
/// `x ∈ [0, 2^k)` is replaced by a `k`-cycle of nodes `(x, i)`, with the
/// cycle node at position `i` also owning the cube edge along dimension `i`.
/// All `k·2^k` nodes are processors.
///
/// Greedy routing sweeps the cycle position forward once, taking the cube
/// edge whenever the current position's address bit differs from the
/// target's, then walks the cycle to the target position (shortest way).
#[derive(Clone, Debug)]
pub struct Ccc {
    k: u32,
}

impl Ccc {
    /// Build a `k`-dimensional CCC (`k ≥ 3` so cycle edges are distinct).
    pub fn new(k: u32) -> Ccc {
        assert!((3..=24).contains(&k), "k in [3, 24]");
        Ccc { k }
    }

    /// Node id of `(corner, position)`.
    pub fn id(&self, corner: usize, pos: usize) -> usize {
        debug_assert!(corner < (1 << self.k) && pos < self.k as usize);
        corner * self.k as usize + pos
    }

    /// `(corner, position)` of a node id.
    pub fn corner_pos(&self, v: usize) -> (usize, usize) {
        (v / self.k as usize, v % self.k as usize)
    }

    fn cycle_next(&self, pos: usize) -> usize {
        (pos + 1) % self.k as usize
    }

    fn cycle_prev(&self, pos: usize) -> usize {
        (pos + self.k as usize - 1) % self.k as usize
    }
}

impl Topology for Ccc {
    fn name(&self) -> String {
        format!("ccc(p={})", self.nodes())
    }

    fn nodes(&self) -> usize {
        self.k as usize * (1usize << self.k)
    }

    fn num_processors(&self) -> usize {
        self.nodes()
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        let (x, i) = self.corner_pos(v);
        vec![
            self.id(x, self.cycle_next(i)),
            self.id(x, self.cycle_prev(i)),
            self.id(x ^ (1 << i), i),
        ]
    }

    fn diameter_bound(&self) -> usize {
        // One forward sweep (k cycle steps + up to k cube edges) plus the
        // final half-cycle walk.
        2 * self.k as usize + self.k as usize / 2 + 1
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let (mut x, mut i) = self.corner_pos(src);
        let (x2, i2) = self.corner_pos(dst);
        // One allocation: a greedy path never exceeds the diameter bound.
        let mut path = Vec::with_capacity(self.diameter_bound() + 1);
        path.push(src);
        // Sweep: visit every cycle position once, fixing bits as passed.
        let mut remaining = x ^ x2;
        while remaining != 0 {
            if remaining & (1 << i) != 0 {
                x ^= 1 << i;
                remaining &= !(1 << i);
                path.push(self.id(x, i));
                if remaining == 0 {
                    break;
                }
            }
            i = self.cycle_next(i);
            path.push(self.id(x, i));
        }
        // Walk the cycle to the target position, shortest direction.
        let k = self.k as usize;
        while i != i2 {
            let fwd = (i2 + k - i) % k;
            i = if fwd <= k - fwd {
                self.cycle_next(i)
            } else {
                self.cycle_prev(i)
            };
            path.push(self.id(x, i));
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::verify_topology;

    #[test]
    fn shape() {
        let c = Ccc::new(3);
        assert_eq!(c.nodes(), 24);
        for v in 0..c.nodes() {
            assert_eq!(c.neighbors(v).len(), 3);
        }
    }

    #[test]
    fn corner_pos_roundtrip() {
        let c = Ccc::new(4);
        for v in 0..c.nodes() {
            let (x, i) = c.corner_pos(v);
            assert_eq!(c.id(x, i), v);
        }
    }

    #[test]
    fn cube_edge_flips_position_bit() {
        let c = Ccc::new(3);
        let n = c.neighbors(c.id(0b000, 1));
        assert!(n.contains(&c.id(0b010, 1)));
    }

    #[test]
    fn verify_routes() {
        verify_topology(&Ccc::new(3), 1);
        verify_topology(&Ccc::new(4), 3);
    }

    #[test]
    fn route_within_corner_walks_cycle() {
        let c = Ccc::new(5);
        let p = c.route(c.id(7, 0), c.id(7, 4));
        // Shortest way from position 0 to 4 on a 5-cycle is one step back.
        assert_eq!(p.len(), 2);
    }
}

//! The shuffle-exchange network, Table 1 row 4: `γ = δ = log p`.

use crate::topology::Topology;

/// A `k`-bit shuffle-exchange network on `2^k` nodes, all processors.
/// Edges: *exchange* `x ↔ x ⊕ 1` and *shuffle* `x ↔ rol_k(x)` (treated as
/// undirected, so both the shuffle and its inverse are traversable).
///
/// Routing is classic destination-tag: `k` shuffle steps, each optionally
/// followed by an exchange to set the bit that just rotated into the LSB.
#[derive(Clone, Debug)]
pub struct ShuffleExchange {
    k: u32,
}

impl ShuffleExchange {
    /// Build a `2^k`-node shuffle-exchange network (`k ≥ 2`).
    pub fn new(k: u32) -> ShuffleExchange {
        assert!((2..=26).contains(&k), "k in [2, 26]");
        ShuffleExchange { k }
    }

    fn mask(&self) -> usize {
        (1 << self.k) - 1
    }

    /// Rotate-left within `k` bits (the shuffle permutation).
    pub fn rol(&self, x: usize) -> usize {
        ((x << 1) | (x >> (self.k - 1))) & self.mask()
    }

    /// Rotate-right within `k` bits (the inverse shuffle).
    pub fn ror(&self, x: usize) -> usize {
        ((x >> 1) | ((x & 1) << (self.k - 1))) & self.mask()
    }
}

impl Topology for ShuffleExchange {
    fn name(&self) -> String {
        format!("shuffle-exchange(p={})", self.nodes())
    }

    fn nodes(&self) -> usize {
        1usize << self.k
    }

    fn num_processors(&self) -> usize {
        self.nodes()
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        let mut out = vec![v ^ 1, self.rol(v), self.ror(v)];
        out.sort_unstable();
        out.dedup();
        out.retain(|&w| w != v);
        out
    }

    fn diameter_bound(&self) -> usize {
        2 * self.k as usize
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        // One allocation: a greedy path never exceeds the diameter bound.
        let mut path = Vec::with_capacity(self.diameter_bound() + 1);
        path.push(src);
        if src == dst {
            return path;
        }
        let mut cur = src;
        // Destination-tag: consume dst bits from MSB (bit k-1) down to 0.
        // After the i-th shuffle the bit set here ends up at position
        // (k-1) - remaining rotations... net effect: cur == dst at the end.
        for i in (0..self.k).rev() {
            let next = self.rol(cur);
            if next != cur {
                cur = next;
                path.push(cur);
            }
            let want = (dst >> i) & 1;
            if cur & 1 != want {
                cur ^= 1;
                path.push(cur);
            }
        }
        debug_assert_eq!(cur, dst);
        // Rotations of self-similar nodes (e.g. all-zeros) can produce
        // consecutive duplicates which we skipped; the path may still touch
        // dst early — trim any trailing revisit loop.
        if let Some(first) = path.iter().position(|&v| v == dst) {
            path.truncate(first + 1);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::verify_topology;

    #[test]
    fn rotations_are_inverse() {
        let s = ShuffleExchange::new(5);
        for x in 0..s.nodes() {
            assert_eq!(s.ror(s.rol(x)), x);
            assert_eq!(s.rol(s.ror(x)), x);
        }
    }

    #[test]
    fn neighbors_are_correct_for_k3() {
        let s = ShuffleExchange::new(3);
        // Node 0b011: exchange 0b010, rol 0b110, ror 0b101.
        let n = s.neighbors(0b011);
        assert_eq!(n, vec![0b010, 0b101, 0b110]);
    }

    #[test]
    fn fixed_points_have_fewer_neighbors() {
        let s = ShuffleExchange::new(3);
        // 0b000 rotates to itself: only the exchange edge remains.
        assert_eq!(s.neighbors(0), vec![1]);
    }

    #[test]
    fn verify_routes() {
        verify_topology(&ShuffleExchange::new(3), 1);
        verify_topology(&ShuffleExchange::new(4), 1);
        verify_topology(&ShuffleExchange::new(6), 5);
    }

    #[test]
    fn route_reaches_destination() {
        let s = ShuffleExchange::new(4);
        for src in 0..16 {
            for dst in 0..16 {
                assert_eq!(*s.route(src, dst).last().unwrap(), dst);
            }
        }
    }
}

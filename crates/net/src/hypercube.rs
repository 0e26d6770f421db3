//! Binary hypercubes, Table 1 rows 2–3: multi-port `γ = 1, δ = log p`;
//! single-port `γ = δ = log p` (port discipline is a router option, see
//! [`crate::router::PortMode`]).

use crate::topology::Topology;

/// A `k`-dimensional binary hypercube with `2^k` nodes, all processors.
/// Routing fixes differing address bits from least to most significant.
#[derive(Clone, Debug)]
pub struct Hypercube {
    k: u32,
}

impl Hypercube {
    /// Build a `2^k`-node hypercube.
    pub fn new(k: u32) -> Hypercube {
        assert!((1..=30).contains(&k), "k in [1, 30]");
        Hypercube { k }
    }

    /// With at least `p` nodes.
    pub fn with_processors(p: usize) -> Hypercube {
        let k = (p.max(2) as f64).log2().ceil() as u32;
        Hypercube::new(k)
    }

    /// Dimension count `k = log2 p`.
    pub fn dims(&self) -> u32 {
        self.k
    }
}

impl Topology for Hypercube {
    fn name(&self) -> String {
        format!("hypercube(p={})", 1usize << self.k)
    }

    fn nodes(&self) -> usize {
        1usize << self.k
    }

    fn num_processors(&self) -> usize {
        self.nodes()
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        (0..self.k).map(|b| v ^ (1usize << b)).collect()
    }

    fn diameter_bound(&self) -> usize {
        self.k as usize
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        // One allocation: a greedy path never exceeds the diameter bound.
        let mut path = Vec::with_capacity(self.diameter_bound() + 1);
        path.push(src);
        let mut cur = src;
        let mut diff = cur ^ dst;
        while diff != 0 {
            let b = diff.trailing_zeros();
            cur ^= 1usize << b;
            diff &= diff - 1;
            path.push(cur);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::verify_topology;

    #[test]
    fn basic_shape() {
        let h = Hypercube::new(4);
        assert_eq!(h.nodes(), 16);
        assert_eq!(h.neighbors(0), vec![1, 2, 4, 8]);
        assert_eq!(h.diameter_bound(), 4);
    }

    #[test]
    fn route_length_is_hamming_distance() {
        let h = Hypercube::new(5);
        assert_eq!(h.route(0b00000, 0b10101).len() - 1, 3);
        assert_eq!(h.route(7, 7), vec![7]);
    }

    #[test]
    fn verify_small_cubes() {
        verify_topology(&Hypercube::new(3), 1);
        verify_topology(&Hypercube::new(6), 4);
    }

    #[test]
    fn with_processors_rounds_up() {
        assert_eq!(Hypercube::with_processors(17).nodes(), 32);
        assert_eq!(Hypercube::with_processors(16).nodes(), 16);
    }
}

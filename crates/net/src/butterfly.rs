//! The butterfly network, Table 1 row 4: `γ = δ = log p`.

use crate::topology::Topology;

/// A `k`-dimensional butterfly: `(k+1)` levels × `2^k` rows, every node a
/// processor (`p = (k+1)·2^k`). Level `l` and `l+1` are joined by straight
/// edges (same row) and cross edges (rows differing in bit `l`).
///
/// Greedy routing is memoryless: while the current row differs from the
/// target row, walk towards the level of the lowest differing bit, crossing
/// exactly when traversing that level boundary; once rows agree, walk
/// straight to the target level.
#[derive(Clone, Debug)]
pub struct Butterfly {
    k: u32,
}

impl Butterfly {
    /// Build a `k`-dimensional butterfly (`k ≥ 1`).
    pub fn new(k: u32) -> Butterfly {
        assert!((1..=24).contains(&k), "k in [1, 24]");
        Butterfly { k }
    }

    /// Rows `2^k`.
    pub fn rows(&self) -> usize {
        1usize << self.k
    }

    /// Levels `k + 1`.
    pub fn levels(&self) -> usize {
        self.k as usize + 1
    }

    /// Node id of `(level, row)`.
    pub fn id(&self, level: usize, row: usize) -> usize {
        debug_assert!(level < self.levels() && row < self.rows());
        level * self.rows() + row
    }

    /// `(level, row)` of a node id.
    pub fn level_row(&self, v: usize) -> (usize, usize) {
        (v / self.rows(), v % self.rows())
    }
}

impl Topology for Butterfly {
    fn name(&self) -> String {
        format!("butterfly(p={})", self.nodes())
    }

    fn nodes(&self) -> usize {
        self.levels() * self.rows()
    }

    fn num_processors(&self) -> usize {
        self.nodes()
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        let (l, r) = self.level_row(v);
        let mut out = Vec::with_capacity(4);
        if l > 0 {
            out.push(self.id(l - 1, r));
            out.push(self.id(l - 1, r ^ (1 << (l - 1))));
        }
        if l + 1 < self.levels() {
            out.push(self.id(l + 1, r));
            out.push(self.id(l + 1, r ^ (1 << l)));
        }
        out
    }

    fn diameter_bound(&self) -> usize {
        // Fixing each differing bit costs at most a walk to its level; a
        // single monotone sweep bounds the total by 2k + k.
        3 * self.k as usize
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let (mut l, mut r) = self.level_row(src);
        let (l2, r2) = self.level_row(dst);
        // One allocation: a greedy path never exceeds the diameter bound.
        let mut path = Vec::with_capacity(self.diameter_bound() + 1);
        path.push(src);
        while r != r2 {
            let b = (r ^ r2).trailing_zeros() as usize;
            if l <= b {
                // Move up; cross exactly at the boundary that flips bit b.
                if l == b {
                    r ^= 1 << b;
                }
                l += 1;
            } else {
                // Move down; cross at boundary l-1 if that flips bit b.
                if l - 1 == b {
                    r ^= 1 << b;
                }
                l -= 1;
            }
            path.push(self.id(l, r));
        }
        while l != l2 {
            if l < l2 {
                l += 1;
            } else {
                l -= 1;
            }
            path.push(self.id(l, r));
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
        let b = Butterfly::new(3);
        assert_eq!(b.nodes(), 4 * 8);
        assert_eq!(b.rows(), 8);
        assert_eq!(b.levels(), 4);
    }

    #[test]
    fn level_row_roundtrip() {
        let b = Butterfly::new(4);
        for v in 0..b.nodes() {
            let (l, r) = b.level_row(v);
            assert_eq!(b.id(l, r), v);
        }
    }

    #[test]
    fn cross_edges_flip_correct_bit() {
        let b = Butterfly::new(3);
        // Node (1, 0b000): up-neighbors at level 2 are rows 0 and 0b010.
        let n = b.neighbors(b.id(1, 0));
        assert!(n.contains(&b.id(2, 0)));
        assert!(n.contains(&b.id(2, 0b010)));
        assert!(n.contains(&b.id(0, 0)));
        assert!(n.contains(&b.id(0, 0b001)));
    }

    #[test]
    fn verify_routes() {
        verify_topology(&Butterfly::new(2), 1);
        verify_topology(&Butterfly::new(3), 1);
        verify_topology(&Butterfly::new(5), 7);
    }

    #[test]
    fn same_row_route_is_straight() {
        let b = Butterfly::new(3);
        let p = b.route(b.id(0, 5), b.id(3, 5));
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|&v| b.level_row(v).1 == 5));
    }
}

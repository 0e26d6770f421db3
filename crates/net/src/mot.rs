//! The mesh-of-trees (pruned butterfly), Table 1 row 5: `γ = √p, δ = log p`.

use crate::topology::Topology;

/// A two-dimensional mesh-of-trees over an `m × m` grid of processor leaves
/// (`m` a power of two): every row and every column carries a complete
/// binary tree whose internal nodes are switch-only (they forward traffic
/// but host no processor). `p = m²` processors, `m² + 2m(m−1)` nodes.
///
/// Routing goes through the source row's tree to the destination column,
/// then down the destination column's tree: length ≤ 4·log₂ m = 2·log₂ p.
#[derive(Clone, Debug)]
pub struct MeshOfTrees {
    m: usize,
}

impl MeshOfTrees {
    /// Build over an `m × m` leaf grid (`m` a power of two ≥ 2).
    pub fn new(m: usize) -> MeshOfTrees {
        assert!(m >= 2 && m.is_power_of_two(), "m must be a power of two >= 2");
        MeshOfTrees { m }
    }

    /// Side length `m = √p`.
    pub fn side(&self) -> usize {
        self.m
    }

    /// Global id of leaf `(row, col)`.
    pub fn leaf(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.m && col < self.m);
        row * self.m + col
    }

    /// Global id of the row-tree internal node with heap index `t ∈ [1, m)`.
    fn row_internal(&self, row: usize, t: usize) -> usize {
        debug_assert!((1..self.m).contains(&t));
        self.m * self.m + row * (self.m - 1) + (t - 1)
    }

    /// Global id of the column-tree internal node with heap index `t`.
    fn col_internal(&self, col: usize, t: usize) -> usize {
        debug_assert!((1..self.m).contains(&t));
        self.m * self.m + self.m * (self.m - 1) + col * (self.m - 1) + (t - 1)
    }

    /// Map a heap index (`1..2m`) within row `row`'s tree to a global id.
    fn row_heap(&self, row: usize, heap: usize) -> usize {
        if heap >= self.m {
            self.leaf(row, heap - self.m)
        } else {
            self.row_internal(row, heap)
        }
    }

    /// Map a heap index within column `col`'s tree to a global id.
    fn col_heap(&self, col: usize, heap: usize) -> usize {
        if heap >= self.m {
            self.leaf(heap - self.m, col)
        } else {
            self.col_internal(col, heap)
        }
    }

    /// Classify a global id: `(kind, tree index, heap index)` where kind is
    /// 0 = leaf (tree index = row, heap = m + col), 1 = row internal,
    /// 2 = column internal.
    fn classify(&self, v: usize) -> (u8, usize, usize) {
        let m = self.m;
        if v < m * m {
            (0, v / m, m + v % m)
        } else if v < m * m + m * (m - 1) {
            let x = v - m * m;
            (1, x / (m - 1), x % (m - 1) + 1)
        } else {
            let x = v - m * m - m * (m - 1);
            (2, x / (m - 1), x % (m - 1) + 1)
        }
    }

    /// Heap path between two leaves `a` and `b` of one complete binary
    /// tree, inclusive of both: up from `a` to the lowest common ancestor,
    /// then down to `b`. Leaves share a depth, so the ancestor is `d`
    /// levels up, where `d` is the bit length of `a ^ b`.
    fn heap_path(a: usize, b: usize) -> impl Iterator<Item = usize> {
        let d = (usize::BITS - (a ^ b).leading_zeros()) as usize;
        (0..=d)
            .map(move |k| a >> k)
            .chain((0..d).rev().map(move |k| b >> k))
    }
}

impl Topology for MeshOfTrees {
    fn name(&self) -> String {
        format!("mesh-of-trees(p={})", self.m * self.m)
    }

    fn nodes(&self) -> usize {
        self.m * self.m + 2 * self.m * (self.m - 1)
    }

    fn num_processors(&self) -> usize {
        self.m * self.m
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        let m = self.m;
        match self.classify(v) {
            (0, row, heap) => {
                let col = heap - m;
                vec![
                    self.row_internal(row, heap / 2),
                    self.col_internal(col, (m + row) / 2),
                ]
            }
            (1, row, t) => {
                let mut out = Vec::with_capacity(3);
                if t > 1 {
                    out.push(self.row_internal(row, t / 2));
                }
                out.push(self.row_heap(row, 2 * t));
                out.push(self.row_heap(row, 2 * t + 1));
                out
            }
            (2, col, t) => {
                let mut out = Vec::with_capacity(3);
                if t > 1 {
                    out.push(self.col_internal(col, t / 2));
                }
                out.push(self.col_heap(col, 2 * t));
                out.push(self.col_heap(col, 2 * t + 1));
                out
            }
            _ => unreachable!(),
        }
    }

    fn diameter_bound(&self) -> usize {
        4 * self.m.ilog2() as usize
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        let m = self.m;
        assert!(src < m * m && dst < m * m, "routes start/end at leaves");
        let (r1, c1) = (src / m, src % m);
        let (r2, c2) = (dst / m, dst % m);
        let mut path = Vec::with_capacity(self.diameter_bound() + 1);
        // Row phase: (r1, c1) -> (r1, c2) through row r1's tree.
        path.extend(Self::heap_path(m + c1, m + c2).map(|heap| self.row_heap(r1, heap)));
        // Column phase: (r1, c2) -> (r2, c2) through column c2's tree; its
        // first node is the row phase's last.
        path.extend(
            Self::heap_path(m + r1, m + r2)
                .skip(1)
                .map(|heap| self.col_heap(c2, heap)),
        );
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::verify_topology;

    #[test]
    fn shape() {
        let t = MeshOfTrees::new(4);
        assert_eq!(t.num_processors(), 16);
        assert_eq!(t.nodes(), 16 + 2 * 4 * 3);
    }

    #[test]
    fn leaf_has_two_parents() {
        let t = MeshOfTrees::new(4);
        assert_eq!(t.neighbors(t.leaf(2, 3)).len(), 2);
    }

    #[test]
    fn root_has_two_children_only() {
        let t = MeshOfTrees::new(4);
        let root = t.row_internal(0, 1);
        assert_eq!(t.neighbors(root).len(), 2);
    }

    #[test]
    fn heap_path_through_lca() {
        // Tree over 4 leaves: heap 4..8; path 4 -> 7 goes 4,2,1,3,7.
        let path = |a, b| MeshOfTrees::heap_path(a, b).collect::<Vec<_>>();
        assert_eq!(path(4, 7), vec![4, 2, 1, 3, 7]);
        assert_eq!(path(4, 5), vec![4, 2, 5]);
        assert_eq!(path(6, 6), vec![6]);
    }

    #[test]
    fn verify_routes() {
        verify_topology(&MeshOfTrees::new(2), 1);
        verify_topology(&MeshOfTrees::new(4), 1);
        verify_topology(&MeshOfTrees::new(8), 5);
    }

    #[test]
    fn route_same_row_stays_in_row_tree() {
        let t = MeshOfTrees::new(4);
        let p = t.route(t.leaf(1, 0), t.leaf(1, 3));
        assert_eq!(*p.first().unwrap(), t.leaf(1, 0));
        assert_eq!(*p.last().unwrap(), t.leaf(1, 3));
        // Interior nodes are all row-1 internals.
        for &v in &p[1..p.len() - 1] {
            let (kind, idx, _) = t.classify(v);
            assert_eq!((kind, idx), (1, 1));
        }
    }
}

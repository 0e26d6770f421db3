//! d-dimensional arrays (meshes), Table 1 row 1: `γ(p) = δ(p) = p^{1/d}`
//! for constant `d`.

use crate::topology::Topology;

/// A d-dimensional array with side lengths `dims`, optionally with
/// wraparound links (torus). Every node is a processor. Routing is
/// dimension-order (e-cube), taking the shorter way around on a torus.
#[derive(Clone, Debug)]
pub struct Array {
    dims: Vec<usize>,
    strides: Vec<usize>,
    n: usize,
    wrap: bool,
}

impl Array {
    /// Build a mesh from per-dimension side lengths (all ≥ 1, ≥ 1 dim).
    pub fn new(dims: &[usize]) -> Array {
        Self::build(dims, false)
    }

    /// Build a torus (wraparound links in every dimension).
    pub fn torus(dims: &[usize]) -> Array {
        Self::build(dims, true)
    }

    fn build(dims: &[usize], wrap: bool) -> Array {
        assert!(!dims.is_empty(), "need at least one dimension");
        assert!(dims.iter().all(|&d| d >= 1), "dimensions must be >= 1");
        let mut strides = vec![1; dims.len()];
        for i in 1..dims.len() {
            strides[i] = strides[i - 1] * dims[i - 1];
        }
        let n = dims.iter().product();
        Array {
            dims: dims.to_vec(),
            strides,
            n,
            wrap,
        }
    }

    /// A square 2-D mesh with `side * side` nodes.
    pub fn mesh2d(side: usize) -> Array {
        Array::new(&[side, side])
    }

    /// A 1-D chain of `n` nodes.
    pub fn chain(n: usize) -> Array {
        Array::new(&[n])
    }

    /// Coordinates of a node id.
    pub fn coords(&self, v: usize) -> Vec<usize> {
        self.dims
            .iter()
            .zip(&self.strides)
            .map(|(&d, &s)| (v / s) % d)
            .collect()
    }

    /// Node id of coordinates.
    pub fn id(&self, coords: &[usize]) -> usize {
        coords
            .iter()
            .zip(&self.strides)
            .map(|(&c, &s)| c * s)
            .sum()
    }
}

impl Topology for Array {
    fn name(&self) -> String {
        let kind = if self.wrap { "torus" } else { "array" };
        format!("{kind}{:?}(p={})", self.dims, self.n)
    }

    fn nodes(&self) -> usize {
        self.n
    }

    fn num_processors(&self) -> usize {
        self.n
    }

    fn neighbors(&self, v: usize) -> Vec<usize> {
        let c = self.coords(v);
        let mut out = Vec::with_capacity(2 * self.dims.len());
        for (dim, &len) in self.dims.iter().enumerate() {
            if len == 1 {
                continue;
            }
            if c[dim] > 0 {
                out.push(v - self.strides[dim]);
            } else if self.wrap && len > 2 {
                out.push(v + self.strides[dim] * (len - 1));
            }
            if c[dim] + 1 < len {
                out.push(v + self.strides[dim]);
            } else if self.wrap && len > 2 {
                out.push(v - self.strides[dim] * (len - 1));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn diameter_bound(&self) -> usize {
        if self.wrap {
            self.dims.iter().map(|&d| d / 2).sum()
        } else {
            self.dims.iter().map(|&d| d - 1).sum()
        }
    }

    fn route(&self, src: usize, dst: usize) -> Vec<usize> {
        // One allocation: a greedy path never exceeds the diameter bound.
        let mut path = Vec::with_capacity(self.diameter_bound() + 1);
        path.push(src);
        let mut cur = self.coords(src);
        let target = self.coords(dst);
        for dim in 0..self.dims.len() {
            let len = self.dims[dim];
            while cur[dim] != target[dim] {
                let fwd = (target[dim] + len - cur[dim]) % len;
                let step_up = if self.wrap && len > 2 {
                    fwd <= len - fwd
                } else {
                    cur[dim] < target[dim]
                };
                if step_up {
                    cur[dim] = (cur[dim] + 1) % len;
                } else {
                    cur[dim] = (cur[dim] + len - 1) % len;
                }
                path.push(self.id(&cur));
            }
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::verify_topology;

    #[test]
    fn coords_roundtrip() {
        let a = Array::new(&[3, 4, 5]);
        for v in 0..a.nodes() {
            assert_eq!(a.id(&a.coords(v)), v);
        }
    }

    #[test]
    fn chain_route_is_straight() {
        let a = Array::chain(6);
        assert_eq!(a.route(1, 4), vec![1, 2, 3, 4]);
        assert_eq!(a.route(4, 1), vec![4, 3, 2, 1]);
        assert_eq!(a.route(2, 2), vec![2]);
    }

    #[test]
    fn mesh_neighbors_and_diameter() {
        let a = Array::mesh2d(4);
        assert_eq!(a.nodes(), 16);
        assert_eq!(a.diameter_bound(), 6);
        // Corner has 2 neighbors, center 4.
        assert_eq!(a.neighbors(0).len(), 2);
        assert_eq!(a.neighbors(5).len(), 4);
    }

    #[test]
    fn verify_2d_and_3d() {
        verify_topology(&Array::mesh2d(5), 1);
        verify_topology(&Array::new(&[3, 3, 3]), 1);
        verify_topology(&Array::chain(9), 1);
    }

    #[test]
    fn torus_wraps_and_shortens_routes() {
        let t = Array::torus(&[8]);
        assert_eq!(t.neighbors(0), vec![1, 7]);
        // 0 -> 6 goes backwards around the ring: 2 hops, not 6.
        assert_eq!(t.route(0, 6), vec![0, 7, 6]);
        assert_eq!(t.diameter_bound(), 4);
        verify_topology(&Array::torus(&[5, 5]), 1);
        verify_topology(&Array::torus(&[4, 3, 3]), 1);
    }

    #[test]
    fn torus_of_side_two_degenerates_to_mesh_edges() {
        // side 2: wraparound would duplicate the single edge; ensure no
        // self-duplicate neighbors.
        let t = Array::torus(&[2, 2]);
        for v in 0..4 {
            let n = t.neighbors(v);
            let mut d = n.clone();
            d.dedup();
            assert_eq!(n, d);
            assert_eq!(n.len(), 2);
        }
        verify_topology(&t, 1);
    }

    #[test]
    fn dimension_order_route_length_is_manhattan() {
        let a = Array::mesh2d(8);
        let src = a.id(&[1, 2]);
        let dst = a.id(&[6, 7]);
        assert_eq!(a.route(src, dst).len() - 1, 5 + 5);
    }
}

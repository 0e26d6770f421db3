//! Shared topology vocabulary for scenario documents.
//!
//! [`Net`] names every Table 1 instance the experiments build, with a
//! stable text token (`hypercube:6`, `mesh-of-trees:16`) so scenario files
//! can reference topologies by name. Every row builder and the `.scn`
//! lowering construct through this one enum, so a measured-medium
//! scenario (`exp_stack` style) and a Table 1 sweep agree on what
//! `hypercube:5` means.

use std::fmt;
use std::str::FromStr;

use bvl_net::table1::Family;
use bvl_net::{
    measure_parameters, Array, Butterfly, Ccc, Hypercube, MeasuredParams, MeshOfTrees, PortMode,
    RouterConfig, ShuffleExchange, Topology,
};

/// A concrete Table 1 network instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Net {
    /// 2-d array (mesh), `side × side`.
    Array2d(usize),
    /// 3-d array, `side³`.
    Array3d(usize),
    /// Boolean hypercube of dimension `k`.
    Hypercube(u32),
    /// Butterfly of dimension `k`.
    Butterfly(u32),
    /// Cube-connected cycles of dimension `k`.
    Ccc(u32),
    /// Shuffle-exchange of dimension `k`.
    ShuffleExchange(u32),
    /// Mesh of trees over a `side × side` grid.
    MeshOfTrees(usize),
}

impl Net {
    /// Instantiate the topology.
    pub fn build(self) -> Box<dyn Topology> {
        match self {
            Net::Array2d(side) => Box::new(Array::mesh2d(side)),
            Net::Array3d(side) => Box::new(Array::new(&[side, side, side])),
            Net::Hypercube(k) => Box::new(Hypercube::new(k)),
            Net::Butterfly(k) => Box::new(Butterfly::new(k)),
            Net::Ccc(k) => Box::new(Ccc::new(k)),
            Net::ShuffleExchange(k) => Box::new(ShuffleExchange::new(k)),
            Net::MeshOfTrees(side) => Box::new(MeshOfTrees::new(side)),
        }
    }

    /// Human tag as printed in cell params (`hypercube(6)`).
    pub fn tag(self) -> String {
        match self {
            Net::Array2d(s) => format!("array2d({s})"),
            Net::Array3d(s) => format!("array3d({s})"),
            Net::Hypercube(k) => format!("hypercube({k})"),
            Net::Butterfly(k) => format!("butterfly({k})"),
            Net::Ccc(k) => format!("ccc({k})"),
            Net::ShuffleExchange(k) => format!("shuffle-exchange({k})"),
            Net::MeshOfTrees(s) => format!("mesh-of-trees({s})"),
        }
    }

    /// Upper bound on any node's in-degree. Used by the bounds audit: a
    /// random h-relation needs at least `⌈h / indeg⌉` synchronous steps to
    /// drain a node's inbound demand, so *over*-estimating the in-degree
    /// only weakens (never falsifies) the derived lower bound.
    pub fn max_indegree(self) -> u64 {
        match self {
            Net::Array2d(_) => 4,
            Net::Array3d(_) => 6,
            Net::Hypercube(k) => k.max(1) as u64,
            Net::Butterfly(_) => 4,
            Net::Ccc(_) => 3,
            Net::ShuffleExchange(_) => 3,
            Net::MeshOfTrees(_) => 6,
        }
    }
}

/// Scenario-file token form: `kind:size`, e.g. `hypercube:6`.
impl fmt::Display for Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Net::Array2d(s) => write!(f, "array2d:{s}"),
            Net::Array3d(s) => write!(f, "array3d:{s}"),
            Net::Hypercube(k) => write!(f, "hypercube:{k}"),
            Net::Butterfly(k) => write!(f, "butterfly:{k}"),
            Net::Ccc(k) => write!(f, "ccc:{k}"),
            Net::ShuffleExchange(k) => write!(f, "shuffle-exchange:{k}"),
            Net::MeshOfTrees(s) => write!(f, "mesh-of-trees:{s}"),
        }
    }
}

impl FromStr for Net {
    type Err = String;

    fn from_str(s: &str) -> Result<Net, String> {
        let (kind, size) = s
            .split_once(':')
            .ok_or_else(|| format!("net '{s}' is not of the form kind:size"))?;
        let n: usize = size
            .parse()
            .map_err(|_| format!("net '{s}': '{size}' is not a number"))?;
        if n == 0 {
            return Err(format!("net '{s}': size must be positive"));
        }
        let k = n as u32;
        match kind {
            "array2d" => Ok(Net::Array2d(n)),
            "array3d" => Ok(Net::Array3d(n)),
            "hypercube" => Ok(Net::Hypercube(k)),
            "butterfly" => Ok(Net::Butterfly(k)),
            "ccc" => Ok(Net::Ccc(k)),
            "shuffle-exchange" => Ok(Net::ShuffleExchange(k)),
            "mesh-of-trees" => Ok(Net::MeshOfTrees(n)),
            other => Err(format!(
                "unknown net kind '{other}' (array2d | array3d | hypercube | butterfly | ccc | shuffle-exchange | mesh-of-trees)"
            )),
        }
    }
}

/// Scenario-file token for a Table 1 analytic family (`array:2`,
/// `hypercube-multi`, `mesh-of-trees`).
pub fn family_token(family: Family) -> String {
    match family {
        Family::ArrayD(d) => format!("array:{d}"),
        Family::HypercubeMulti => "hypercube-multi".into(),
        Family::HypercubeSingle => "hypercube-single".into(),
        Family::Butterfly => "butterfly".into(),
        Family::Ccc => "ccc".into(),
        Family::ShuffleExchange => "shuffle-exchange".into(),
        Family::MeshOfTrees => "mesh-of-trees".into(),
    }
}

/// Parse a [`family_token`] back into a [`Family`].
pub fn parse_family(s: &str) -> Result<Family, String> {
    if let Some(d) = s.strip_prefix("array:") {
        let d: u32 = d
            .parse()
            .map_err(|_| format!("family '{s}': '{d}' is not a number"))?;
        if d == 0 {
            return Err(format!("family '{s}': dimension must be positive"));
        }
        return Ok(Family::ArrayD(d));
    }
    match s {
        "hypercube-multi" => Ok(Family::HypercubeMulti),
        "hypercube-single" => Ok(Family::HypercubeSingle),
        "butterfly" => Ok(Family::Butterfly),
        "ccc" => Ok(Family::Ccc),
        "shuffle-exchange" => Ok(Family::ShuffleExchange),
        "mesh-of-trees" => Ok(Family::MeshOfTrees),
        other => Err(format!(
            "unknown family '{other}' (array:D | hypercube-multi | hypercube-single | butterfly | ccc | shuffle-exchange | mesh-of-trees)"
        )),
    }
}

/// The h-relation ladder every Table 1 measurement runs.
pub const HS: [usize; 5] = [1, 2, 4, 8, 16];

/// Route the h-relation ladder on `net` and fit `T(h) = γ̂·h + δ̂`.
pub fn measure(net: Net, mode: PortMode, seed: u64) -> MeasuredParams {
    let config = RouterConfig {
        mode,
        ..RouterConfig::default()
    };
    measure_parameters(&*net.build(), &HS, 3, seed, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_tokens_round_trip() {
        let all = [
            Net::Array2d(16),
            Net::Array3d(7),
            Net::Hypercube(8),
            Net::Butterfly(5),
            Net::Ccc(5),
            Net::ShuffleExchange(8),
            Net::MeshOfTrees(16),
        ];
        for net in all {
            let tok = net.to_string();
            assert_eq!(tok.parse::<Net>().unwrap(), net, "token {tok}");
        }
    }

    #[test]
    fn family_tokens_round_trip() {
        let all = [
            Family::ArrayD(2),
            Family::ArrayD(3),
            Family::HypercubeMulti,
            Family::HypercubeSingle,
            Family::Butterfly,
            Family::Ccc,
            Family::ShuffleExchange,
            Family::MeshOfTrees,
        ];
        for fam in all {
            let tok = family_token(fam);
            assert_eq!(parse_family(&tok).unwrap(), fam, "token {tok}");
        }
    }

    #[test]
    fn bad_tokens_are_rejected() {
        assert!("hypercube".parse::<Net>().is_err());
        assert!("hypercube:x".parse::<Net>().is_err());
        assert!("torus:4".parse::<Net>().is_err());
        assert!("array2d:0".parse::<Net>().is_err());
        assert!(parse_family("array:0").is_err());
        assert!(parse_family("ring").is_err());
    }
}

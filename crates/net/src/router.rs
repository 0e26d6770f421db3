//! Synchronous store-and-forward packet routing.
//!
//! The router is the operational meaning of "route an h-relation on this
//! network": packets follow their topology-provided (or Valiant) paths, one
//! packet per directed link per step (multi-port) or one send and one
//! receive per *node* per step (single-port — the discipline that separates
//! Table 1's two hypercube rows). Queues are unbounded FIFO per output port,
//! optionally prioritized farthest-to-go first.
//!
//! [`Router`] is the stateful engine: it implements
//! [`bvl_exec::Executor`], so one network step is one [`Executor::step`]
//! and a whole relation is routed by [`bvl_exec::drive`]. The one-shot
//! wrapper [`route_relation`] preserves the original convenience API.

use crate::topology::Topology;
use crate::valiant::valiant_path;
use bvl_exec::{drive, Executor, RunOutcome};
use bvl_model::rngutil::SeedStream;
use bvl_model::{HRelation, ModelError, Steps};
use std::collections::VecDeque;

/// Port discipline per step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortMode {
    /// A node may send one packet on *every* outgoing link and receive on
    /// every incoming link simultaneously.
    Multi,
    /// A node may send at most one packet and receive at most one packet
    /// per step, across all its links.
    Single,
}

/// Which queued packet crosses a link first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Oldest first.
    Fifo,
    /// Most remaining hops first (the classic farthest-first heuristic).
    FarthestFirst,
}

/// How packet paths are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathStrategy {
    /// The topology's deterministic oblivious route.
    Greedy,
    /// Valiant's two-phase randomized routing: greedy to a uniformly random
    /// intermediate node, then greedy to the destination.
    Valiant,
}

/// Router options.
#[derive(Clone, Copy, Debug)]
pub struct RouterConfig {
    /// Port discipline.
    pub mode: PortMode,
    /// Queue service order.
    pub discipline: QueueDiscipline,
    /// Path selection.
    pub paths: PathStrategy,
    /// RNG seed (Valiant interm. nodes, single-port tie-breaking).
    pub seed: u64,
    /// Step budget before declaring the routing stuck.
    pub max_steps: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            mode: PortMode::Multi,
            discipline: QueueDiscipline::Fifo,
            paths: PathStrategy::Greedy,
            seed: 0,
            max_steps: 10_000_000,
        }
    }
}

/// Outcome of routing one relation.
#[derive(Clone, Copy, Debug)]
pub struct RouteOutcome {
    /// Steps until the last packet was delivered.
    pub time: u64,
    /// Packets delivered (always the relation size on success).
    pub delivered: usize,
    /// Peak total queued packets at any single node.
    pub max_queue: usize,
    /// Total link traversals.
    pub total_hops: u64,
}

struct Pkt {
    path: Vec<usize>,
    hop: usize,
}

impl Pkt {
    fn remaining(&self) -> usize {
        self.path.len() - 1 - self.hop
    }
    fn cur(&self) -> usize {
        self.path[self.hop]
    }
    fn next(&self) -> usize {
        self.path[self.hop + 1]
    }
    fn endpoints(&self) -> (usize, usize) {
        (self.path[0], *self.path.last().expect("non-empty path"))
    }
}

/// The stateful routing engine for one h-relation on one topology.
///
/// All topology-dependent state (paths, adjacency, port numbering) is
/// captured at construction, so the router owns no borrow of the network.
/// Drive it with [`Executor::step`] (one synchronous network step per call)
/// or all the way with [`bvl_exec::drive`]; [`Router::route_outcome`] reads
/// the classic [`RouteOutcome`] at any point.
///
/// Ports are numbered flat: node `v`'s port `q` (the link to its `q`-th
/// neighbour) is `port_base[v] + q`. Each port owns a FIFO queue, a bitset
/// marks the non-empty ones so a step visits only busy ports, and per-node
/// occupancy counts replace a scan of every queue for `max_queue`.
pub struct Router {
    config: RouterConfig,
    packets: Vec<Pkt>,
    /// Neighbour lists, concatenated in node order: the port order.
    neighbors: Vec<usize>,
    /// `port_base[v]..port_base[v + 1]` are node `v`'s ports.
    port_base: Vec<usize>,
    queues: Vec<VecDeque<usize>>,
    /// Bit `k` set ⇔ port `k`'s queue is non-empty.
    busy: Vec<u64>,
    /// Packets queued at each node, across its ports.
    occupancy: Vec<usize>,
    /// Largest node occupancy any enqueue has produced. Between steps
    /// queues only grow, so folding this in at the start of a step equals
    /// the largest occupancy at that instant (see [`Executor::step`]).
    peak: usize,
    rr: Vec<usize>, // single-port round-robin pointers
    total: usize,
    delivered: usize,
    time: u64,
    max_queue: usize,
    total_hops: u64,
    delivered_pairs: Vec<(usize, usize)>,
    last_moves: Vec<(usize, usize)>,
}

impl Router {
    /// Build a router for `rel` (processor-indexed) on `topo`.
    ///
    /// # Panics
    /// If the relation spans more processors than the network has.
    pub fn new<T: Topology + ?Sized>(topo: &T, rel: &HRelation, config: RouterConfig) -> Router {
        assert!(
            rel.p() <= topo.num_processors(),
            "relation over {} processors on a {}-processor network",
            rel.p(),
            topo.num_processors()
        );
        let mut rng = SeedStream::new(config.seed).derive("router", 0);

        // Build packets.
        let mut packets: Vec<Pkt> = Vec::with_capacity(rel.len());
        let mut delivered = 0usize;
        let mut delivered_pairs: Vec<(usize, usize)> = Vec::new();
        for d in rel.demands() {
            let (src, dst) = (d.src.index(), d.dst.index());
            let path = match config.paths {
                PathStrategy::Greedy => topo.route(src, dst),
                PathStrategy::Valiant => valiant_path(topo, src, dst, &mut rng),
            };
            if path.len() <= 1 {
                delivered += 1; // src == dst: no network traversal needed
                delivered_pairs.push((src, dst));
            } else {
                packets.push(Pkt { path, hop: 0 });
            }
        }

        // Flat port numbering and per-port queues.
        let n = topo.nodes();
        let mut neighbors = Vec::new();
        let mut port_base = Vec::with_capacity(n + 1);
        for v in 0..n {
            port_base.push(neighbors.len());
            neighbors.extend(topo.neighbors(v));
        }
        port_base.push(neighbors.len());
        let ports = neighbors.len();

        let total = packets.len() + delivered;
        let mut router = Router {
            config,
            packets,
            neighbors,
            port_base,
            queues: vec![VecDeque::new(); ports],
            busy: vec![0; ports.div_ceil(64)],
            occupancy: vec![0; n],
            peak: 0,
            rr: vec![0; n],
            total,
            delivered,
            time: 0,
            max_queue: 0,
            total_hops: 0,
            delivered_pairs,
            last_moves: Vec::new(),
        };
        for id in 0..router.packets.len() {
            router.enqueue(id);
        }
        router
    }

    /// The `(src, dst)` processor pairs delivered so far, in delivery order.
    pub fn delivered_pairs(&self) -> &[(usize, usize)] {
        &self.delivered_pairs
    }

    /// The `(from, to)` node link traversals performed by the most recent
    /// step (empty before the first step).
    pub fn last_moves(&self) -> &[(usize, usize)] {
        &self.last_moves
    }

    /// The classic outcome summary for the routing so far.
    pub fn route_outcome(&self) -> RouteOutcome {
        RouteOutcome {
            time: self.time,
            delivered: self.delivered,
            max_queue: self.max_queue,
            total_hops: self.total_hops,
        }
    }

    fn pick(&self, queue: &VecDeque<usize>) -> usize {
        match self.config.discipline {
            QueueDiscipline::Fifo => 0,
            QueueDiscipline::FarthestFirst => queue
                .iter()
                .enumerate()
                .max_by_key(|&(_, &id)| self.packets[id].remaining())
                .map(|(i, _)| i)
                .expect("non-empty queue"),
        }
    }

    /// Queue packet `id` on the port towards its next hop. The port is the
    /// hop's position in the node's neighbour list (the last one, should a
    /// neighbour repeat).
    fn enqueue(&mut self, id: usize) {
        let p = &self.packets[id];
        let (cur, next) = (p.cur(), p.next());
        let base = self.port_base[cur];
        let q = self.neighbors[base..self.port_base[cur + 1]]
            .iter()
            .rposition(|&w| w == next)
            .unwrap_or_else(|| panic!("route hop {cur} -> {next} is not an edge"));
        let port = base + q;
        self.queues[port].push_back(id);
        self.busy[port / 64] |= 1 << (port % 64);
        self.occupancy[cur] += 1;
        self.peak = self.peak.max(self.occupancy[cur]);
    }

    /// Take the packet at position `i` of `port`'s queue.
    fn dequeue(&mut self, port: usize, i: usize) -> usize {
        let queue = &mut self.queues[port];
        let id = queue.remove(i).expect("queued");
        if queue.is_empty() {
            self.busy[port / 64] &= !(1 << (port % 64));
        }
        self.occupancy[self.packets[id].cur()] -= 1;
        id
    }
}

impl Executor for Router {
    /// Advance the network one synchronous step: select at most one packet
    /// per output port (multi-port) or per node (single-port) from the
    /// state at the start of the step, then apply all moves simultaneously.
    ///
    /// `max_queue` takes the largest node occupancy at the start of each
    /// step. Queues only grow between one step's selection and the next
    /// step's start, so every occupancy an enqueue produced is at most the
    /// occupancy of that node at the next start; folding in `peak` reads
    /// the same maximum without visiting every node.
    fn step(&mut self) -> Result<bool, ModelError> {
        if self.delivered >= self.total {
            return Ok(false);
        }
        self.max_queue = self.max_queue.max(self.peak);

        // Select moves based on the state at the start of the step.
        let mut moves: Vec<usize> = Vec::new();
        match self.config.mode {
            PortMode::Multi => {
                // Busy ports in port order, i.e. by node, then port.
                for w in 0..self.busy.len() {
                    let mut bits = self.busy[w];
                    while bits != 0 {
                        let port = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let i = self.pick(&self.queues[port]);
                        moves.push(self.dequeue(port, i));
                    }
                }
            }
            PortMode::Single => {
                // Each node proposes one send (round-robin over busy ports);
                // each node accepts one receive (lowest sender id wins).
                let n = self.occupancy.len();
                let mut proposals: Vec<(usize, usize, usize)> = Vec::new(); // (port, position, pkt)
                for v in 0..n {
                    if self.occupancy[v] == 0 {
                        continue;
                    }
                    let base = self.port_base[v];
                    let nports = self.port_base[v + 1] - base;
                    for off in 0..nports {
                        let q = (self.rr[v] + off) % nports;
                        let queue = &self.queues[base + q];
                        if !queue.is_empty() {
                            let i = self.pick(queue);
                            proposals.push((base + q, i, queue[i]));
                            self.rr[v] = (q + 1) % nports;
                            break;
                        }
                    }
                }
                // A node proposes once, so its queue is unchanged between
                // its proposal and the removal below.
                let mut recv_taken = vec![false; n];
                for (port, i, pkt) in proposals {
                    let dst = self.packets[pkt].next();
                    if !recv_taken[dst] {
                        recv_taken[dst] = true;
                        moves.push(self.dequeue(port, i));
                    }
                }
            }
        }

        // Apply moves simultaneously.
        self.time += 1;
        self.last_moves.clear();
        for id in moves {
            let p = &mut self.packets[id];
            self.last_moves.push((p.cur(), p.next()));
            p.hop += 1;
            self.total_hops += 1;
            if p.remaining() == 0 {
                self.delivered += 1;
                self.delivered_pairs.push(p.endpoints());
            } else {
                self.enqueue(id);
            }
        }
        Ok(true)
    }

    fn halted(&self) -> bool {
        self.delivered >= self.total
    }

    fn outcome(&self) -> RunOutcome {
        RunOutcome {
            makespan: Steps(self.time),
            delivered: self.delivered as u64,
            work: self.total_hops,
            halted: self.halted(),
        }
    }
}

/// Route all demands of `rel` (processor-indexed) on `topo` and report the
/// completion time. One-shot wrapper: builds a [`Router`] and drives it to
/// quiescence under `config.max_steps`.
pub fn route_relation<T: Topology + ?Sized>(
    topo: &T,
    rel: &HRelation,
    config: RouterConfig,
) -> Result<RouteOutcome, ModelError> {
    let mut router = Router::new(topo, rel, config);
    drive(&mut router, config.max_steps)?;
    Ok(router.route_outcome())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::hypercube::Hypercube;
    use bvl_model::rngutil::SeedStream;
    use bvl_model::{Payload, ProcId};

    #[test]
    fn single_packet_takes_path_length_steps() {
        let topo = Array::chain(8);
        let mut rel = HRelation::new(8);
        rel.push(ProcId(1), ProcId(6), Payload::tagged(0));
        let out = route_relation(&topo, &rel, RouterConfig::default()).unwrap();
        assert_eq!(out.time, 5);
        assert_eq!(out.delivered, 1);
        assert_eq!(out.total_hops, 5);
    }

    #[test]
    fn self_messages_cost_nothing() {
        let topo = Array::chain(4);
        let mut rel = HRelation::new(4);
        rel.push(ProcId(2), ProcId(2), Payload::tagged(0));
        let out = route_relation(&topo, &rel, RouterConfig::default()).unwrap();
        assert_eq!(out.time, 0);
        assert_eq!(out.delivered, 1);
    }

    #[test]
    fn chain_contention_serializes() {
        // Nodes 0..4 all send to node 4 along a chain: the link 3->4 is the
        // bottleneck and must carry 4 packets on consecutive steps.
        let topo = Array::chain(5);
        let mut rel = HRelation::new(5);
        for i in 0..4 {
            rel.push(ProcId(i), ProcId(4), Payload::tagged(0));
        }
        let out = route_relation(&topo, &rel, RouterConfig::default()).unwrap();
        // Packet from 0 needs 4 hops but queues behind others: last arrival
        // cannot beat max(distance, arrival order at bottleneck).
        assert!(out.time >= 4);
        assert_eq!(out.delivered, 4);
    }

    #[test]
    fn multiport_parallelizes_disjoint_traffic() {
        let topo = Hypercube::new(3);
        // A perfect matching along dimension 0: all 8 packets in 1 step.
        let mut rel = HRelation::new(8);
        for v in 0..8usize {
            rel.push(ProcId::from(v), ProcId::from(v ^ 1), Payload::tagged(0));
        }
        let out = route_relation(&topo, &rel, RouterConfig::default()).unwrap();
        assert_eq!(out.time, 1);
    }

    #[test]
    fn single_port_serializes_fanout() {
        let topo = Hypercube::new(3);
        // Node 0 sends to all 3 of its neighbors: multi-port 1 step,
        // single-port 3 steps.
        let mut rel = HRelation::new(8);
        for b in 0..3 {
            rel.push(ProcId(0), ProcId(1 << b), Payload::tagged(0));
        }
        let multi = route_relation(&topo, &rel, RouterConfig::default()).unwrap();
        let single = route_relation(
            &topo,
            &rel,
            RouterConfig {
                mode: PortMode::Single,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        assert_eq!(multi.time, 1);
        assert_eq!(single.time, 3);
    }

    #[test]
    fn single_port_respects_receive_limit() {
        let topo = Hypercube::new(3);
        // All 3 neighbors of node 7 send to it: 3 steps to drain receives.
        let mut rel = HRelation::new(8);
        for b in 0..3 {
            rel.push(ProcId(7 ^ (1 << b)), ProcId(7), Payload::tagged(0));
        }
        let single = route_relation(
            &topo,
            &rel,
            RouterConfig {
                mode: PortMode::Single,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        assert_eq!(single.time, 3);
    }

    #[test]
    fn random_relation_fully_delivered_under_all_configs() {
        let topo = Hypercube::new(4);
        let mut rng = SeedStream::new(5).derive("t", 0);
        let rel = HRelation::random_exact(&mut rng, 16, 4);
        for mode in [PortMode::Multi, PortMode::Single] {
            for disc in [QueueDiscipline::Fifo, QueueDiscipline::FarthestFirst] {
                for paths in [PathStrategy::Greedy, PathStrategy::Valiant] {
                    let out = route_relation(
                        &topo,
                        &rel,
                        RouterConfig {
                            mode,
                            discipline: disc,
                            paths,
                            seed: 9,
                            ..RouterConfig::default()
                        },
                    )
                    .unwrap();
                    assert_eq!(out.delivered, rel.len(), "{mode:?}/{disc:?}/{paths:?}");
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = Hypercube::new(4);
        let mut rng = SeedStream::new(6).derive("t", 0);
        let rel = HRelation::random_exact(&mut rng, 16, 3);
        let cfg = RouterConfig {
            paths: PathStrategy::Valiant,
            seed: 11,
            ..RouterConfig::default()
        };
        let a = route_relation(&topo, &rel, cfg).unwrap();
        let b = route_relation(&topo, &rel, cfg).unwrap();
        assert_eq!(a.time, b.time);
        assert_eq!(a.total_hops, b.total_hops);
    }

    #[test]
    fn stepwise_router_matches_one_shot() {
        let topo = Hypercube::new(4);
        let mut rng = SeedStream::new(7).derive("t", 0);
        let rel = HRelation::random_exact(&mut rng, 16, 3);
        let cfg = RouterConfig::default();
        let one_shot = route_relation(&topo, &rel, cfg).unwrap();
        let mut r = Router::new(&topo, &rel, cfg);
        let mut steps = 0u64;
        while r.step().unwrap() {
            steps += 1;
            assert!(steps <= cfg.max_steps, "router diverged");
        }
        assert!(r.halted());
        assert_eq!(r.route_outcome().time, one_shot.time);
        assert_eq!(r.route_outcome().total_hops, one_shot.total_hops);
        assert_eq!(r.delivered_pairs().len(), rel.len());
    }

    #[test]
    fn delivered_pairs_match_relation() {
        let topo = Array::chain(6);
        let mut rel = HRelation::new(6);
        rel.push(ProcId(0), ProcId(5), Payload::tagged(0));
        rel.push(ProcId(3), ProcId(3), Payload::tagged(0));
        rel.push(ProcId(4), ProcId(1), Payload::tagged(0));
        let mut r = Router::new(&topo, &rel, RouterConfig::default());
        drive(&mut r, 1_000).unwrap();
        let mut got: Vec<_> = r.delivered_pairs().to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 5), (3, 3), (4, 1)]);
    }

    /// A star whose centre lists leaf 1 twice (`[1, 2, 1]`): a hop to a
    /// repeated neighbour queues on its last port.
    struct DoubledStar;

    impl Topology for DoubledStar {
        fn name(&self) -> String {
            "doubled-star".into()
        }
        fn nodes(&self) -> usize {
            3
        }
        fn num_processors(&self) -> usize {
            3
        }
        fn neighbors(&self, v: usize) -> Vec<usize> {
            if v == 0 {
                vec![1, 2, 1]
            } else {
                vec![0]
            }
        }
        fn diameter_bound(&self) -> usize {
            2
        }
        fn route(&self, src: usize, dst: usize) -> Vec<usize> {
            match (src, dst) {
                _ if src == dst => vec![src],
                (0, _) | (_, 0) => vec![src, dst],
                _ => vec![src, 0, dst],
            }
        }
    }

    #[test]
    fn repeated_neighbour_uses_its_last_port() {
        let mut rel = HRelation::new(3);
        rel.push(ProcId(0), ProcId(1), Payload::tagged(0));
        rel.push(ProcId(0), ProcId(2), Payload::tagged(0));
        // Multi-port serves ports in order: port 1 (to 2), then port 2
        // (to 1, the last of its two ports).
        let mut r = Router::new(&DoubledStar, &rel, RouterConfig::default());
        r.step().unwrap();
        assert_eq!(r.last_moves(), &[(0, 2), (0, 1)]);
        // Single-port round-robin from port 0 finds port 1 (to 2) first.
        let single = RouterConfig {
            mode: PortMode::Single,
            ..RouterConfig::default()
        };
        let mut r = Router::new(&DoubledStar, &rel, single);
        r.step().unwrap();
        assert_eq!(r.last_moves(), &[(0, 2)]);
    }
}

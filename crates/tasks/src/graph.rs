//! Graph substrate for the analytics side tasks: a CSR graph and a
//! deterministic power-law generator.
//!
//! The paper's graph side tasks (Gardenia's PageRank and Graph SGD,
//! §6.1.4) run over the Orkut social network — a 3M-node public snapshot
//! unavailable offline. We substitute a synthetic graph with matching
//! degree skew, generated by preferential attachment, which exercises the
//! same CSR traversal and scatter/gather code paths.

use freeride_sim::DetRng;

/// A directed graph in compressed sparse row form.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is ≥ `nodes`.
    pub fn from_edges(nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut degree = vec![0usize; nodes];
        for &(s, d) in edges {
            assert!(
                (s as usize) < nodes && (d as usize) < nodes,
                "edge out of range"
            );
            degree[s as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        for n in 0..nodes {
            offsets.push(offsets[n] + degree[n]);
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; edges.len()];
        for &(s, d) in edges {
            targets[cursor[s as usize]] = d;
            cursor[s as usize] += 1;
        }
        CsrGraph { offsets, targets }
    }

    /// Generates a power-law graph by preferential attachment: each new
    /// node draws `edges_per_node` endpoints biased towards high-degree
    /// nodes (Orkut-like skew), deterministically from `rng`.
    pub fn power_law(nodes: usize, edges_per_node: usize, rng: &mut DetRng) -> Self {
        assert!(nodes >= 2, "need at least two nodes");
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(nodes * edges_per_node);
        // Endpoint pool: nodes appear once per incident edge, so sampling
        // uniformly from the pool is degree-proportional.
        let mut pool: Vec<u32> = vec![0, 1];
        edges.push((0, 1));
        edges.push((1, 0));
        for v in 2..nodes as u32 {
            for _ in 0..edges_per_node {
                let u = pool[rng.gen_index(pool.len())];
                if u == v {
                    continue;
                }
                edges.push((v, u));
                edges.push((u, v));
                pool.push(u);
                pool.push(v);
            }
        }
        CsrGraph::from_edges(nodes, &edges)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighbours of `node`.
    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.targets[self.offsets[node]..self.offsets[node + 1]]
    }

    /// Out-degree of `node`.
    pub fn degree(&self, node: usize) -> usize {
        self.offsets[node + 1] - self.offsets[node]
    }

    /// Maximum out-degree (skew witness).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|n| self.degree(n))
            .max()
            .unwrap_or(0)
    }
}

/// PageRank by power iteration (damping 0.85), one iteration per side-task
/// step — Gardenia's PR kernel shape.
///
/// # Cycle replay
///
/// In floating point the iteration never reaches a fixed point. After some
/// tens of steps the rank vector falls into a short limit cycle and repeats
/// bit for bit: on power-law graphs of 100 to 20,000 nodes the cycle starts
/// after 60–78 iterations, with period 1, 2, 4, 6 or 10. The solver watches
/// for the first repeat with Brent's cycle-finding algorithm, computes one
/// more period while recording each iterate and its delta, and from then on
/// replays the record, so a step costs an index increment. On those graphs
/// replay starts by the 147th step.
///
/// Replay is exact because [`step`](Self::step) reads only the rank vector,
/// the immutable graph and the constant damping. Once the vector equals an
/// earlier iterate bit for bit, every later iterate and L1 delta is already
/// known, and `step`, [`last_delta`](Self::last_delta),
/// [`iterations`](Self::iterations) and [`ranks`](Self::ranks) return what
/// recomputation would. A future setter for any of those three inputs breaks
/// this invariant and must reset the detector.
pub struct PageRank {
    graph: CsrGraph,
    damping: f64,
    iterations: u64,
    last_delta: f64,
    orbit: Orbit,
}

/// Where the rank vector is on its orbit.
enum Orbit {
    /// Computing iterates until one full period is recorded.
    Compute(PowerIteration),
    /// Replaying the recorded period; the current iterate is `cycle[slot]`.
    Replay {
        cycle: Vec<(Vec<f64>, f64)>,
        slot: usize,
    },
}

/// The power iteration with Brent's repeat detector.
struct PowerIteration {
    ranks: Vec<f64>,
    /// Scratch for the next iterate, swapped with `ranks` every step.
    next: Vec<f64>,
    /// The iterate of `lag` steps ago. When `lag` reaches `power`, the mark
    /// moves to the current iterate and `power` doubles, so any period is
    /// found without a tuning constant.
    mark: Vec<f64>,
    lag: usize,
    power: usize,
    /// The cycle's length, once `ranks` has repeated `mark`.
    period: Option<usize>,
    /// The iterates computed since the repeat, each with its delta.
    cycle: Vec<(Vec<f64>, f64)>,
}

impl PageRank {
    /// Creates the solver with uniform initial ranks.
    pub fn new(graph: CsrGraph) -> Self {
        let n = graph.num_nodes();
        let ranks = vec![1.0 / n as f64; n];
        PageRank {
            graph,
            damping: 0.85,
            iterations: 0,
            last_delta: f64::INFINITY,
            orbit: Orbit::Compute(PowerIteration {
                mark: ranks.clone(),
                ranks,
                next: vec![0.0; n],
                lag: 0,
                power: 1,
                period: None,
                cycle: Vec::new(),
            }),
        }
    }

    /// Advances one power iteration; returns the L1 change in the rank
    /// vector.
    pub fn step(&mut self) -> f64 {
        self.iterations += 1;
        self.last_delta = match &mut self.orbit {
            Orbit::Replay { cycle, slot } => {
                *slot = if *slot + 1 == cycle.len() {
                    0
                } else {
                    *slot + 1
                };
                cycle[*slot].1
            }
            Orbit::Compute(iteration) => {
                let delta = iteration.step(&self.graph, self.damping);
                if let Some(cycle) = iteration.record(delta) {
                    self.orbit = Orbit::Replay {
                        slot: cycle.len() - 1,
                        cycle,
                    };
                }
                delta
            }
        };
        self.last_delta
    }

    /// Iterations run so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// L1 delta of the most recent iteration (convergence witness).
    pub fn last_delta(&self) -> f64 {
        self.last_delta
    }

    /// The current rank vector.
    pub fn ranks(&self) -> &[f64] {
        match &self.orbit {
            Orbit::Compute(iteration) => &iteration.ranks,
            Orbit::Replay { cycle, slot } => &cycle[*slot].0,
        }
    }
}

impl PowerIteration {
    /// Computes the next iterate into `ranks`; returns the L1 change.
    fn step(&mut self, graph: &CsrGraph, damping: f64) -> f64 {
        let n = graph.num_nodes();
        let next = &mut self.next;
        next.fill((1.0 - damping) / n as f64);
        let mut dangling = 0.0;
        for (&rank, span) in self.ranks.iter().zip(graph.offsets.windows(2)) {
            let out = &graph.targets[span[0]..span[1]];
            if out.is_empty() {
                dangling += rank;
                continue;
            }
            let share = damping * rank / out.len() as f64;
            for &v in out {
                next[v as usize] += share;
            }
        }
        let dangling_share = damping * dangling / n as f64;
        for v in next.iter_mut() {
            *v += dangling_share;
        }
        let delta: f64 = next
            .iter()
            .zip(&self.ranks)
            .map(|(a, b)| (a - b).abs())
            .sum();
        std::mem::swap(&mut self.ranks, &mut self.next);
        delta
    }

    /// Feeds the iterate just computed to the detector or, after the
    /// repeat, to the record; returns the record once it holds a period.
    fn record(&mut self, delta: f64) -> Option<Vec<(Vec<f64>, f64)>> {
        let Some(period) = self.period else {
            self.lag += 1;
            if self
                .ranks
                .iter()
                .zip(&self.mark)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            {
                // The first match is at the minimal period: a mark before
                // the cycle never recurs.
                self.period = Some(self.lag);
            } else if self.lag == self.power {
                self.mark.copy_from_slice(&self.ranks);
                self.power *= 2;
                self.lag = 0;
            }
            return None;
        };
        if self.cycle.len() + 1 < period {
            self.cycle.push((self.ranks.clone(), delta));
            return None;
        }
        let mut cycle = std::mem::take(&mut self.cycle);
        cycle.push((std::mem::take(&mut self.ranks), delta));
        Some(cycle)
    }
}

/// SGD matrix factorisation (Koren-style collaborative filtering), the
/// paper's "Graph SGD" side task: one step performs one SGD sweep over a
/// sample of ratings.
pub struct GraphSgd {
    users: usize,
    items: usize,
    rank: usize,
    user_factors: Vec<f64>,
    item_factors: Vec<f64>,
    ratings: Vec<(u32, u32, f64)>,
    rng: DetRng,
    lr: f64,
    reg: f64,
    sweeps: u64,
    last_rmse: f64,
}

impl GraphSgd {
    /// Builds a factorisation problem over a synthetic low-rank ratings
    /// matrix with noise.
    pub fn new(users: usize, items: usize, rank: usize, ratings_count: usize, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        // Ground-truth low-rank structure.
        let gt_user: Vec<f64> = (0..users * rank)
            .map(|_| rng.next_gaussian() * 0.5)
            .collect();
        let gt_item: Vec<f64> = (0..items * rank)
            .map(|_| rng.next_gaussian() * 0.5)
            .collect();
        let mut ratings = Vec::with_capacity(ratings_count);
        for _ in 0..ratings_count {
            let u = rng.gen_index(users);
            let i = rng.gen_index(items);
            let mut dot = 0.0;
            for k in 0..rank {
                dot += gt_user[u * rank + k] * gt_item[i * rank + k];
            }
            ratings.push((u as u32, i as u32, dot + rng.next_gaussian() * 0.05));
        }
        let user_factors = (0..users * rank)
            .map(|_| rng.next_gaussian() * 0.1)
            .collect();
        let item_factors = (0..items * rank)
            .map(|_| rng.next_gaussian() * 0.1)
            .collect();
        GraphSgd {
            users,
            items,
            rank,
            user_factors,
            item_factors,
            ratings,
            rng,
            lr: 0.05,
            reg: 0.01,
            sweeps: 0,
            last_rmse: f64::INFINITY,
        }
    }

    /// One SGD sweep over the ratings (shuffled); returns the RMSE over
    /// the sweep.
    pub fn step(&mut self) -> f64 {
        let mut order: Vec<usize> = (0..self.ratings.len()).collect();
        self.rng.shuffle(&mut order);
        let mut sq = 0.0;
        for idx in order {
            let (u, i, r) = self.ratings[idx];
            let (u, i) = (u as usize, i as usize);
            let mut pred = 0.0;
            for k in 0..self.rank {
                pred += self.user_factors[u * self.rank + k] * self.item_factors[i * self.rank + k];
            }
            let err = r - pred;
            sq += err * err;
            for k in 0..self.rank {
                let uf = self.user_factors[u * self.rank + k];
                let vf = self.item_factors[i * self.rank + k];
                self.user_factors[u * self.rank + k] += self.lr * (err * vf - self.reg * uf);
                self.item_factors[i * self.rank + k] += self.lr * (err * uf - self.reg * vf);
            }
        }
        self.sweeps += 1;
        self.last_rmse = (sq / self.ratings.len() as f64).sqrt();
        self.last_rmse
    }

    /// Sweeps performed.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// RMSE of the most recent sweep.
    pub fn last_rmse(&self) -> f64 {
        self.last_rmse
    }

    /// Problem dimensions `(users, items, rank)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.users, self.items, self.rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_from_edges() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2), (1, 2), (2, 0)]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    #[should_panic(expected = "edge out of range")]
    fn out_of_range_edge_panics() {
        CsrGraph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn power_law_graph_is_skewed() {
        let mut rng = DetRng::seed_from_u64(3);
        let g = CsrGraph::power_law(2000, 4, &mut rng);
        assert_eq!(g.num_nodes(), 2000);
        let mean = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            g.max_degree() as f64 > mean * 10.0,
            "power-law graphs have heavy hubs: max {} vs mean {mean}",
            g.max_degree()
        );
    }

    #[test]
    fn power_law_deterministic() {
        let build = || {
            let mut rng = DetRng::seed_from_u64(11);
            CsrGraph::power_law(500, 3, &mut rng).num_edges()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn pagerank_converges_and_sums_to_one() {
        let mut rng = DetRng::seed_from_u64(5);
        let g = CsrGraph::power_law(500, 3, &mut rng);
        let mut pr = PageRank::new(g);
        let first = pr.step();
        for _ in 0..50 {
            pr.step();
        }
        let last = pr.last_delta();
        assert!(last < first / 100.0, "should converge: {first} → {last}");
        let sum: f64 = pr.ranks().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-6,
            "ranks must stay a distribution: {sum}"
        );
        assert_eq!(pr.iterations(), 51);
    }

    #[test]
    fn pagerank_handles_dangling_nodes() {
        // Node 2 has no out-edges.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut pr = PageRank::new(g);
        for _ in 0..30 {
            pr.step();
        }
        let sum: f64 = pr.ranks().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(pr.ranks().iter().all(|r| *r > 0.0));
    }

    #[test]
    fn pagerank_replays_its_limit_cycle() {
        for (nodes, seed, period) in [(100, 5, 1), (1000, 1, 2), (300, 50, 10)] {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut pr = PageRank::new(CsrGraph::power_law(nodes, 4, &mut rng));
            for _ in 0..200 {
                pr.step();
            }
            match &pr.orbit {
                Orbit::Replay { cycle, .. } => assert_eq!(cycle.len(), period, "{nodes}/{seed}"),
                Orbit::Compute(_) => panic!("{nodes}/{seed}: no repeat within 200 steps"),
            }
        }
    }

    #[test]
    fn sgd_rmse_decreases() {
        let mut sgd = GraphSgd::new(80, 60, 4, 2000, 9);
        let first = sgd.step();
        for _ in 0..30 {
            sgd.step();
        }
        let last = sgd.last_rmse();
        assert!(
            last < first * 0.5,
            "factorisation should fit: {first} → {last}"
        );
        assert_eq!(sgd.sweeps(), 31);
        assert_eq!(sgd.dims(), (80, 60, 4));
    }

    #[test]
    fn sgd_deterministic() {
        let run = || {
            let mut s = GraphSgd::new(20, 20, 3, 300, 4);
            for _ in 0..5 {
                s.step();
            }
            s.last_rmse()
        };
        assert_eq!(run(), run());
    }
}

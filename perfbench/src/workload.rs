//! The two workloads: how each builds its inputs from the seed, its
//! sequential baseline, and its concurrent algorithm. Only the generated
//! inputs reach the library.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched::core::algorithms::incremental::connectivity::{components, ConcurrentConnectivity};
use rsched::core::algorithms::incremental::insertion_order;
use rsched::core::algorithms::mis::{greedy_mis, ConcurrentMis};
use rsched::core::framework::ConcurrentAlgorithm;
use rsched::graph::{gen, CsrGraph, Permutation};

/// One generated instance of a workload.
pub trait Instance: Sync {
    type Alg<'a>: ConcurrentAlgorithm
    where
        Self: 'a;
    type Output: PartialEq + std::fmt::Debug;

    /// The task order: task `order().task_at(i)` has priority `i`, and the
    /// service phases offer tasks in this order.
    fn order(&self) -> &Permutation;
    /// Bytes of the generated input handed to the library.
    fn input_bytes(&self) -> usize;
    /// The single-threaded baseline; its result is the reference output.
    fn sequential(&self) -> Self::Output;
    /// The reference output after only the first `k` tasks in order (the
    /// open-loop phase streams a prefix of the order).
    fn prefix_reference(&self, k: usize) -> Self::Output;
    /// A fresh concurrent algorithm over the instance.
    fn algorithm(&self) -> Self::Alg<'_>;
    /// The concurrent algorithm's result after a run.
    fn output(alg: Self::Alg<'_>) -> Self::Output;
    /// Requests per second the open-loop phase offers: about 15% of what
    /// the saturation phase completes on a 2-vCPU x86-64 guest. At a third
    /// of it, the backlog a stolen vCPU leaves behind moved the median
    /// latency of whole runs on a shared host.
    fn offered_rate(&self) -> f64;
}

/// Greedy MIS on G(n, m): figure2's "sparse" class.
pub struct Mis {
    g: CsrGraph,
    pi: Permutation,
}

pub const MIS_N: usize = 1_000_000;
pub const MIS_M: usize = 10_000_000;

impl Mis {
    pub fn generate(seed: u64) -> Self {
        Self::with_size(MIS_N, MIS_M, seed)
    }

    /// An instance over G(n, m) (the tests use small ones).
    pub fn with_size(n: usize, m: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnm(n, m, &mut rng);
        let pi = Permutation::random(n, &mut rng);
        Mis { g, pi }
    }
}

impl Instance for Mis {
    type Alg<'a> = ConcurrentMis<'a>;
    type Output = Vec<bool>;

    fn order(&self) -> &Permutation {
        &self.pi
    }
    fn input_bytes(&self) -> usize {
        self.g.memory_bytes()
    }
    fn sequential(&self) -> Vec<bool> {
        greedy_mis(&self.g, &self.pi)
    }
    fn prefix_reference(&self, k: usize) -> Vec<bool> {
        let mut mis = greedy_mis(&self.g, &self.pi);
        for (v, m) in mis.iter_mut().enumerate() {
            *m &= (self.pi.label(v as u32) as usize) < k;
        }
        mis
    }
    fn algorithm(&self) -> ConcurrentMis<'_> {
        ConcurrentMis::new(&self.g, &self.pi)
    }
    fn output(alg: ConcurrentMis<'_>) -> Vec<bool> {
        alg.into_output()
    }
    fn offered_rate(&self) -> f64 {
        140_000.0
    }
}

/// Incremental connectivity over the edges of G(n, m), one task per edge.
pub struct Connectivity {
    n: usize,
    edges: Vec<(u32, u32)>,
    pi: Permutation,
}

pub const CONN_N: usize = 200_000;
pub const CONN_M: usize = 1_000_000;

impl Connectivity {
    pub fn generate(seed: u64) -> Self {
        Self::with_size(CONN_N, CONN_M, seed)
    }

    /// An instance over G(n, m) (the tests use small ones).
    pub fn with_size(n: usize, m: usize, seed: u64) -> Self {
        let edges = gen::gnm(n, m, &mut StdRng::seed_from_u64(seed)).edge_list();
        let pi = insertion_order(edges.len(), seed);
        Connectivity { n, edges, pi }
    }
}

impl Instance for Connectivity {
    type Alg<'a> = ConcurrentConnectivity<'a>;
    type Output = Vec<u32>;

    fn order(&self) -> &Permutation {
        &self.pi
    }
    fn input_bytes(&self) -> usize {
        std::mem::size_of_val(self.edges.as_slice())
    }
    fn sequential(&self) -> Vec<u32> {
        components(self.n, &self.edges)
    }
    fn prefix_reference(&self, k: usize) -> Vec<u32> {
        let prefix: Vec<(u32, u32)> =
            (0..k as u32).map(|pos| self.edges[self.pi.task_at(pos) as usize]).collect();
        components(self.n, &prefix)
    }
    fn algorithm(&self) -> ConcurrentConnectivity<'_> {
        ConcurrentConnectivity::new(self.n, &self.edges)
    }
    fn output(alg: ConcurrentConnectivity<'_>) -> Vec<u32> {
        alg.into_labels()
    }
    fn offered_rate(&self) -> f64 {
        140_000.0
    }
}

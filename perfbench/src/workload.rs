//! The three workloads. Each run of any workload takes every user path —
//! `sketch-build`, `serve` start, reads, writes, optimize jobs — so every
//! end-to-end metric is measured on every workload; the workloads differ in
//! graph size, read mix, the epoch the reads see and the optimizer.

use crate::gen::{social_graph, Rng};

/// Kind of optimize job submitted with `optimize-submit`.
#[derive(Clone, Copy)]
pub enum Optimizer {
    /// MINRECC (REM): a fresh sketch, hull and scored hull-pair
    /// candidates per iteration. The paper's headline optimizer.
    MinRecc,
    /// CENMINRECC (REMD): one sketch for the whole job. Used where the
    /// graph is too large for a MINRECC job inside one run.
    CenMinRecc,
}

impl Optimizer {
    pub fn wire_name(self) -> &'static str {
        match self {
            Optimizer::MinRecc => "minrecc",
            Optimizer::CenMinRecc => "cenminrecc",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// Nodes of the analog graph (15 % of them on pendant chains).
    pub n: usize,
    /// `sketch-build` runs per run (the first one builds the snapshot the
    /// servers load).
    pub builds: usize,
    /// Share of `ecc` among reads (the rest are `res`).
    pub ecc_share: f64,
    /// Zipf exponent of `ecc` sources over a seeded node permutation;
    /// `None` for uniform sources.
    pub zipf: Option<f64>,
    /// Reads per round, sent in chunks of `read_chunk` (the server's CPU
    /// time is read between chunks), and whether they go to the mutated
    /// server right after the round's writes instead of the fresh one.
    pub reads_per_round: usize,
    pub read_chunk: usize,
    pub mutated_reads: bool,
    /// `add-edge` writes per round.
    pub writes_per_round: usize,
    /// Optimizer of the jobs (one per round).
    pub optimizer: Optimizer,
}

/// Holme–Kim attachment count of every graph's core.
pub const M_ATTACH: usize = 5;
/// Sketch ε of every build, server and job.
pub const EPS: f64 = 0.5;
/// Edge budget k of every optimize job.
pub const JOB_K: usize = 3;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve_read",
        n: 5000,
        builds: 2,
        ecc_share: 0.8,
        zipf: Some(1.0),
        reads_per_round: 6000,
        read_chunk: 500,
        mutated_reads: false,
        writes_per_round: 30,
        optimizer: Optimizer::CenMinRecc,
    },
    Workload {
        name: "serve_write",
        n: 5000,
        builds: 2,
        ecc_share: 1.0,
        zipf: None,
        reads_per_round: 300,
        read_chunk: 50,
        mutated_reads: true,
        writes_per_round: 45,
        optimizer: Optimizer::CenMinRecc,
    },
    Workload {
        name: "optimize",
        n: 1000,
        builds: 5,
        ecc_share: 0.8,
        zipf: Some(1.0),
        reads_per_round: 6000,
        read_chunk: 500,
        mutated_reads: false,
        writes_per_round: 100,
        optimizer: Optimizer::MinRecc,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Independent seeded streams, one per input kind, so changing how much
/// of one stream a run uses never shifts another.
pub fn stream(seed: u64, tag: u64) -> Rng {
    Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag.wrapping_mul(0xd1b5_4a32_d192_ed03))
}

pub const GRAPH: u64 = 1;
pub const LAYOUT: u64 = 2;
pub const READS: u64 = 3;
pub const WRITES: u64 = 4;
pub const JOBS: u64 = 5;
pub const SAMPLES: u64 = 6;

impl Workload {
    /// The workload's graph in generator ids.
    pub fn graph(&self, seed: u64) -> Vec<(usize, usize)> {
        social_graph(self.n, M_ATTACH, &mut stream(seed, GRAPH))
    }
}

//! Golden sketch bits for every precision × preconditioner pair the sketch
//! build accepts: the `to_bits` of `ResistanceSketch::flat()`, the solver
//! iteration count and the diagnostics counts, checked against
//! `golden/solver_combos.txt`.

use reecc_core::{ChebyshevConfig, Precision, Preconditioner, ResistanceSketch, SketchParams};
use reecc_graph::fingerprint::Fnv1a;
use reecc_graph::generators::{holme_kim, with_pendant_periphery};
use reecc_graph::Graph;

/// A 200-node Holme–Kim core with 30 pendant chains of length ≤ 3.
fn graph() -> Graph {
    with_pendant_periphery(&holme_kim(170, 3, 0.6, 211), 30, 3, 212)
}

const PRECISIONS: [(&str, Precision); 2] =
    [("f64", Precision::F64), ("mixed", Precision::Mixed)];

fn preconditioners() -> [(&'static str, Preconditioner); 4] {
    [
        ("none", Preconditioner::Identity),
        ("jacobi", Preconditioner::Jacobi),
        ("sgs", Preconditioner::SymmetricGaussSeidel),
        ("cheby", Preconditioner::Chebyshev(ChebyshevConfig::default())),
    ]
}

/// One golden line: the combination, the FNV-1a of the sketch's bits, and
/// the solver's work and health counts.
fn render(precision: &str, precond: &str, sketch: &ResistanceSketch) -> String {
    let mut h = Fnv1a::new();
    for x in sketch.flat() {
        h.update(&x.to_bits().to_le_bytes());
    }
    let diag = sketch.diagnostics();
    format!(
        "{precision} {precond} flat {:#018x} iterations {} rows {} first_try {} repaired {} \
         fallback {} dropped {} unconverged {}",
        h.finish(),
        sketch.solve_iterations(),
        diag.rows,
        diag.converged_first_try,
        diag.repaired.len(),
        diag.fallback_rows.len(),
        diag.dropped.len(),
        diag.unconverged.len(),
    )
}

fn build_all(g: &Graph, threads: usize) -> Vec<String> {
    let mut lines = Vec::new();
    for (pname, precision) in PRECISIONS {
        for (cname, precond) in preconditioners() {
            let mut params = SketchParams {
                epsilon: 0.3,
                max_dimension: Some(61),
                seed: 97,
                threads,
                block_size: 8,
                precision,
                ..SketchParams::default()
            };
            params.cg.preconditioner = precond;
            let sketch = ResistanceSketch::build(g, &params).expect("connected graph");
            lines.push(render(pname, cname, &sketch));
        }
    }
    lines
}

#[test]
fn every_solver_combination_matches_its_golden_bits() {
    // Generation recipe (recorded so the golden file can be regenerated):
    // `build_all(&graph(), 1)` joined with newlines, one line per
    // precision × preconditioner pair, written by the hand-copied f32 and
    // u32 kernels before the block stack became generic. Sixty-one rows
    // at width 8 leave a width-5 tail block. Only a change meant to move
    // the sketch may rewrite it, from the `left` side of a failure.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("solver_combos.txt");
    let golden = std::fs::read_to_string(path).expect("golden solver bits are checked in");
    let golden: Vec<&str> = golden.lines().collect();
    assert_eq!(golden.len(), 8, "one golden line per combination");
    let g = graph();
    for threads in [1usize, 2] {
        let lines = build_all(&g, threads);
        for (got, want) in lines.iter().zip(&golden) {
            assert_eq!(got, want, "threads = {threads}");
        }
    }
}

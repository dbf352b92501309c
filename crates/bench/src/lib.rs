#![warn(missing_docs)]
//! # reecc-bench
//!
//! Benchmark harness for the paper reproduction: one binary per table /
//! figure (see DESIGN.md §5 for the experiment index) plus Criterion
//! microbenches. This library crate holds the shared plumbing: a tiny
//! argument parser, fixed-width table printing, and timing helpers.

use std::time::Instant;

use reecc_core::{Precision, Preconditioner};
use reecc_datasets::Tier;

/// Minimal `--flag value` argument parser for the harness binaries.
///
/// Supported shapes: `--tier ci`, `--k 10`, `--eps 0.3,0.2`,
/// `--dataset politician`. Unknown flags are an error so typos fail loud.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Scale tier (default [`Tier::Ci`]).
    pub tier: Tier,
    /// Optional dataset-name filter.
    pub dataset: Option<String>,
    /// Optional edge budget override.
    pub k: Option<usize>,
    /// Epsilon list (default `[0.3, 0.2, 0.1]`).
    pub epsilons: Vec<f64>,
    /// Optional seed override.
    pub seed: Option<u64>,
    /// Optional sketch-dimension scale override (1.0 = paper formula).
    pub dimension_scale: Option<f64>,
    /// Optional blocked-CG batch width override (0 = adaptive default).
    pub block_size: Option<usize>,
    /// Row-solve arithmetic (`--precision f64|mixed`, default f64).
    pub precision: Precision,
    /// CG preconditioner (`--precond none|jacobi|sgs|cheby`, default
    /// jacobi; cheby auto-tunes its eigenvalue interval per graph).
    pub precond: Preconditioner,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            tier: Tier::Ci,
            dataset: None,
            k: None,
            epsilons: vec![0.3, 0.2, 0.1],
            seed: None,
            dimension_scale: None,
            block_size: None,
            precision: Precision::F64,
            precond: Preconditioner::Jacobi,
        }
    }
}

impl HarnessArgs {
    /// Parse `std::env::args`, exiting with a message on invalid input.
    pub fn parse() -> HarnessArgs {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                eprintln!(
                    "usage: --tier ci|small|medium|large --dataset NAME --k N \
                     --eps 0.3,0.2,0.1 --seed N --dim-scale X --block B \
                     --precision f64|mixed --precond none|jacobi|sgs|cheby"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit iterator (testable).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or bad values.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<HarnessArgs, String> {
        let mut out = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or(format!("flag {flag} needs a value"));
            match flag.as_str() {
                "--tier" => {
                    let v = value()?;
                    out.tier = Tier::parse(&v).ok_or(format!("unknown tier {v:?}"))?;
                }
                "--dataset" => out.dataset = Some(value()?),
                "--k" => {
                    out.k = Some(value()?.parse().map_err(|_| "bad --k value".to_string())?)
                }
                "--eps" => {
                    let v = value()?;
                    let eps: Result<Vec<f64>, _> =
                        v.split(',').map(|t| t.trim().parse::<f64>()).collect();
                    out.epsilons = eps.map_err(|_| format!("bad --eps list {v:?}"))?;
                    if out.epsilons.iter().any(|&e| e <= 0.0 || e >= 1.0) {
                        return Err("--eps values must be in (0, 1)".to_string());
                    }
                }
                "--seed" => {
                    out.seed =
                        Some(value()?.parse().map_err(|_| "bad --seed value".to_string())?)
                }
                "--dim-scale" => {
                    let v: f64 =
                        value()?.parse().map_err(|_| "bad --dim-scale value".to_string())?;
                    if v <= 0.0 {
                        return Err("--dim-scale must be positive".to_string());
                    }
                    out.dimension_scale = Some(v);
                }
                "--block" => {
                    out.block_size =
                        Some(value()?.parse().map_err(|_| "bad --block value".to_string())?)
                }
                "--precision" => out.precision = value()?.parse()?,
                "--precond" => out.precond = value()?.parse()?,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }
}

/// Fixed-width table printer for harness output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (padded to the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, cell)| format!("{:width$}", cell, width = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Build [`reecc_core::SketchParams`] from harness flags for a given `ε`.
pub fn sketch_params(args: &HarnessArgs, epsilon: f64) -> reecc_core::SketchParams {
    let mut params = reecc_core::SketchParams {
        epsilon,
        seed: args.seed.unwrap_or(42),
        dimension_scale: args.dimension_scale.unwrap_or(1.0),
        precision: args.precision,
        ..Default::default()
    };
    params.cg.preconditioner = args.precond;
    params
}

/// Short machine-readable label for a (precision, precond) pair, used as
/// the `mode` field in trajectory bench records (e.g. `"mixed+cheby"`).
pub fn mode_label(precision: Precision, precond: Preconditioner) -> String {
    format!("{}+{}", precision.name(), precond.name())
}

/// Run `f` three times, returning `(last_result, min_secs, median_secs)`.
///
/// Trajectory records store both: min is the low-noise "machine capability"
/// number, median is the honest expectation. Three repeats keep the large
/// tier affordable while still shedding one outlier.
pub fn timed_median3<T>(mut f: impl FnMut() -> T) -> (T, f64, f64) {
    let (_, t0) = timed(&mut f);
    let (_, t1) = timed(&mut f);
    let (out, t2) = timed(&mut f);
    let mut ts = [t0, t1, t2];
    ts.sort_by(f64::total_cmp);
    (out, ts[0], ts[1])
}

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Render an ASCII bar of `value / max` scaled to `width` characters —
/// used by the distribution figures.
pub fn ascii_bar(value: usize, max: usize, width: usize) -> String {
    if max == 0 {
        return String::new();
    }
    let filled = (value * width).div_ceil(max).min(width);
    "#".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reecc_core::ChebyshevConfig;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::try_parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.tier, Tier::Ci);
        assert_eq!(a.epsilons, vec![0.3, 0.2, 0.1]);
        assert!(a.dataset.is_none());
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&[
            "--tier",
            "medium",
            "--dataset",
            "hepph",
            "--k",
            "25",
            "--eps",
            "0.5,0.4",
            "--seed",
            "9",
            "--dim-scale",
            "0.25",
        ])
        .unwrap();
        assert_eq!(a.tier, Tier::Medium);
        assert_eq!(a.dataset.as_deref(), Some("hepph"));
        assert_eq!(a.k, Some(25));
        assert_eq!(a.epsilons, vec![0.5, 0.4]);
        assert_eq!(a.seed, Some(9));
        assert_eq!(a.dimension_scale, Some(0.25));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--tier", "galactic"]).is_err());
        assert!(parse(&["--eps", "1.5"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--k"]).is_err());
        assert!(parse(&["--dim-scale", "-1"]).is_err());
        assert!(parse(&["--precision", "f16"]).is_err());
        assert!(parse(&["--precond", "ilu"]).is_err());
    }

    #[test]
    fn precision_and_precond_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.precision, Precision::F64);
        assert_eq!(a.precond, Preconditioner::Jacobi);

        let a = parse(&["--precision", "mixed", "--precond", "cheby"]).unwrap();
        assert_eq!(a.precision, Precision::Mixed);
        assert!(matches!(a.precond, Preconditioner::Chebyshev(cfg) if !cfg.is_resolved()));
        let p = sketch_params(&a, 0.3);
        assert_eq!(p.precision, Precision::Mixed);
        assert!(matches!(p.cg.preconditioner, Preconditioner::Chebyshev(_)));

        let a = parse(&["--precond", "none"]).unwrap();
        assert_eq!(a.precond, Preconditioner::Identity);
        let a = parse(&["--precond", "sgs"]).unwrap();
        assert_eq!(a.precond, Preconditioner::SymmetricGaussSeidel);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(mode_label(Precision::F64, Preconditioner::Jacobi), "f64+jacobi");
        assert_eq!(
            mode_label(Precision::Mixed, Preconditioner::Chebyshev(ChebyshevConfig::default())),
            "mixed+cheby"
        );
        assert_eq!(mode_label(Precision::F64, Preconditioner::Identity), "f64+none");
        assert_eq!(
            mode_label(Precision::Mixed, Preconditioner::SymmetricGaussSeidel),
            "mixed+sgs"
        );
    }

    #[test]
    fn timed_median3_orders_samples() {
        let mut calls = 0;
        let (v, min, median) = timed_median3(|| {
            calls += 1;
            calls
        });
        assert_eq!(v, 3);
        assert_eq!(calls, 3);
        assert!(min <= median);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["x", "1"]);
        t.row(["longer", "2.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("x"));
    }

    #[test]
    fn bars() {
        assert_eq!(ascii_bar(0, 10, 10), "");
        assert_eq!(ascii_bar(10, 10, 10), "##########");
        assert_eq!(ascii_bar(1, 10, 10), "#");
        assert_eq!(ascii_bar(5, 0, 10), "");
    }

    #[test]
    fn timed_returns_result() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}

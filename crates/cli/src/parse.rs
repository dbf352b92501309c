//! Flag parsing for the `reecc` subcommands.

use crate::CliError;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `reecc analyze <file> [--eps X] [--lcc]`
    Analyze {
        /// Edge-list path.
        path: String,
        /// Sketch epsilon.
        eps: f64,
        /// Reduce disconnected inputs to their largest connected component
        /// instead of rejecting them.
        lcc: bool,
    },
    /// `reecc query <file> --nodes A,B,C [--method M] [--eps X] [--lcc]`
    Query {
        /// Edge-list path.
        path: String,
        /// Query node ids (dense ids after remapping).
        nodes: Vec<usize>,
        /// `exact`, `approx` or `fast`.
        method: QueryMethod,
        /// Sketch epsilon.
        eps: f64,
        /// Reduce disconnected inputs to their largest connected component.
        lcc: bool,
    },
    /// `reecc optimize <file> --source S --k N [...]`
    Optimize {
        /// Edge-list path.
        path: String,
        /// Source node.
        source: usize,
        /// Edge budget.
        k: usize,
        /// Which algorithm.
        algorithm: Algorithm,
        /// Sketch epsilon.
        eps: f64,
        /// Worker threads for candidate evaluation and the sketch build
        /// (`0` = auto via `resolve_threads`).
        threads: usize,
        /// Right-hand sides per blocked-CG batch (`0` = adaptive default).
        /// At `1` the sketch build takes its scalar CG path and the
        /// candidate evaluator solves one-column blocks.
        block_size: usize,
        /// Floating-point mode for the sketch and candidate solves.
        precision: PrecisionArg,
        /// Preconditioner for the CG row solves.
        precond: PrecondArg,
        /// CELF-style lazy re-evaluation for SIMPLE.
        lazy: bool,
        /// Reduce disconnected inputs to their largest connected component.
        lcc: bool,
    },
    /// `reecc generate --model M --n N [...]`
    Generate {
        /// Generator model.
        model: Model,
        /// Node count (ignored for `dataset`).
        n: usize,
        /// Model parameter (attachment count / rewiring base / etc.).
        param: f64,
        /// RNG seed.
        seed: u64,
        /// Dataset name for `--model dataset`.
        dataset: Option<String>,
        /// Output path; stdout when absent.
        out: Option<String>,
    },
    /// `reecc sketch-build <file> --out SNAP [--eps X] [--seed S] [--lcc]
    /// [--verify]`
    SketchBuild {
        /// Edge-list path.
        path: String,
        /// Snapshot output path.
        out: String,
        /// Sketch epsilon.
        eps: f64,
        /// Sketch RNG seed.
        seed: u64,
        /// Floating-point mode for the sketch build.
        precision: PrecisionArg,
        /// Preconditioner for the CG row solves.
        precond: PrecondArg,
        /// Reduce disconnected inputs to their largest connected component.
        lcc: bool,
        /// Round-trip the written snapshot (load + fingerprint check)
        /// before reporting success.
        verify: bool,
    },
    /// `reecc sketch-info <snapshot>`
    SketchInfo {
        /// Snapshot path.
        path: String,
    },
    /// `reecc serve <file> [--snapshot SNAP] [--addr HOST:PORT] [--threads N]
    /// [--queue-depth D] [--eps X] [--lcc] [--wal-dir DIR]
    /// [--error-budget X] [--max-jobs N] [--job-dir DIR] [--max-connections N]
    /// [--idle-timeout SECS] [--write-buffer-cap BYTES]`
    Serve {
        /// Edge-list path (always needed: snapshots store a fingerprint,
        /// not the graph).
        path: String,
        /// Snapshot to load instead of building a sketch.
        snapshot: Option<String>,
        /// TCP listen address; pipe mode (stdin/stdout) when absent.
        addr: Option<String>,
        /// Worker threads (`0` = auto-detect hardware parallelism).
        threads: usize,
        /// Bounded queue depth (backpressure threshold).
        queue_depth: usize,
        /// Sketch epsilon (ignored with `--snapshot`).
        eps: f64,
        /// Floating-point mode for sketch builds, including the live
        /// engine's background re-sketch (ignored with `--snapshot`
        /// until the first re-sketch).
        precision: PrecisionArg,
        /// Preconditioner for the CG solves (sketch build, what-ifs,
        /// re-sketch).
        precond: PrecondArg,
        /// Reduce disconnected inputs to their largest connected component.
        lcc: bool,
        /// Durable mutation-log directory. When it already holds a
        /// `CURRENT` epoch the server recovers from it (snapshot + WAL
        /// replay) instead of the edge list.
        wal_dir: Option<String>,
        /// Per-epoch error budget for rank-1 mutations; defaults to the
        /// sketch ε when absent.
        error_budget: Option<f64>,
        /// Concurrent background optimization jobs (`optimize-submit`);
        /// `0` disables the job subsystem.
        max_jobs: usize,
        /// Directory for durable job checkpoints; jobs interrupted by a
        /// crash or restart resume from it.
        job_dir: Option<String>,
        /// TCP admission cap: simultaneous connections before new ones
        /// are shed with one `overloaded` line.
        max_connections: usize,
        /// TCP idle deadline in seconds: a silent connection is closed
        /// with an in-band notice after this long.
        idle_timeout_secs: u64,
        /// Per-connection pending-output bound in bytes; a client that
        /// stops reading its responses is shed at this mark.
        write_buffer_cap: usize,
    },
    /// `reecc help` / `--help`.
    Help,
}

/// Query pipeline selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMethod {
    /// Dense pseudoinverse (EXACTQUERY).
    Exact,
    /// Sketch, full scan (APPROXQUERY).
    Approx,
    /// Sketch + hull (FASTQUERY).
    Fast,
}

/// Optimization algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Exact greedy (SIMPLE); needs `--problem`.
    Simple {
        /// REMD or REM candidate set.
        rem: bool,
    },
    /// FARMINRECC (REMD).
    Far,
    /// CENMINRECC (REMD).
    Cen,
    /// CHMINRECC (REM).
    Ch,
    /// MINRECC (REM).
    MinRecc,
}

/// Floating-point mode for the sketch's row solves
/// (`--precision {f64,mixed}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecisionArg {
    /// Full-f64 CG — the bitwise-stable default.
    #[default]
    F64,
    /// f32 blocked-CG sweeps under f64 iterative refinement.
    Mixed,
}

/// Preconditioner for the sketch's row solves
/// (`--precond {none,jacobi,sgs,cheby}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrecondArg {
    /// Unpreconditioned CG.
    None,
    /// Diagonal (degree) scaling — the default.
    #[default]
    Jacobi,
    /// Symmetric Gauss–Seidel smoothing.
    Sgs,
    /// Auto-tuned scaled-Chebyshev polynomial preconditioner.
    Cheby,
}

/// Generator model selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Barabási–Albert; `--param` = attachment count.
    Ba,
    /// Holme–Kim; `--param` = attachment count (triad prob fixed 0.6).
    Hk,
    /// Watts–Strogatz; `--param` = neighbors per side (β fixed 0.1).
    Ws,
    /// Erdős–Rényi (connected); `--param` = edge probability.
    Er,
    /// Power-law configuration model; `--param` = exponent γ.
    PowerLaw,
    /// A named dataset analog (see `reecc-datasets`).
    DatasetAnalog,
}

struct Flags {
    pairs: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut pairs = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                // Boolean flags take no value.
                if name == "help" || name == "lcc" || name == "verify" || name == "lazy" {
                    pairs.push((name.to_string(), String::new()));
                    continue;
                }
                let value = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                pairs.push((name.to_string(), value.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Flags { pairs, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), CliError> {
        for (n, _) in &self.pairs {
            if !allowed.contains(&n.as_str()) && n != "help" {
                return Err(CliError::Usage(format!("unknown flag --{n}")));
            }
        }
        Ok(())
    }
}

fn parse_eps(flags: &Flags) -> Result<f64, CliError> {
    match flags.get("eps") {
        None => Ok(0.3),
        Some(v) => {
            let eps: f64 =
                v.parse().map_err(|_| CliError::Usage(format!("bad --eps value {v:?}")))?;
            if !(0.0..1.0).contains(&eps) || eps == 0.0 {
                return Err(CliError::Usage("--eps must be in (0, 1)".to_string()));
            }
            Ok(eps)
        }
    }
}

fn parse_precision(flags: &Flags) -> Result<PrecisionArg, CliError> {
    match flags.get("precision") {
        None => Ok(PrecisionArg::default()),
        Some("f64") => Ok(PrecisionArg::F64),
        Some("mixed") => Ok(PrecisionArg::Mixed),
        Some(other) => Err(CliError::Usage(format!(
            "unknown --precision {other:?} (expected f64 or mixed)"
        ))),
    }
}

fn parse_precond(flags: &Flags) -> Result<PrecondArg, CliError> {
    match flags.get("precond") {
        None => Ok(PrecondArg::default()),
        Some("none") => Ok(PrecondArg::None),
        Some("jacobi") => Ok(PrecondArg::Jacobi),
        Some("sgs") => Ok(PrecondArg::Sgs),
        Some("cheby") => Ok(PrecondArg::Cheby),
        Some(other) => Err(CliError::Usage(format!(
            "unknown --precond {other:?} (expected none, jacobi, sgs or cheby)"
        ))),
    }
}

fn parse_usize(flags: &Flags, name: &str) -> Result<Option<usize>, CliError> {
    flags
        .get(name)
        .map(|v| {
            v.parse::<usize>().map_err(|_| CliError::Usage(format!("bad --{name} value {v:?}")))
        })
        .transpose()
}

/// Parse a full argv (excluding the binary name) into a [`Command`].
///
/// # Errors
///
/// [`CliError::Usage`] with a targeted message for every malformed input.
pub fn parse_command(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "analyze" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["eps", "lcc"])?;
            if flags.has("help") {
                return Ok(Command::Help);
            }
            let path = flags
                .positional
                .first()
                .ok_or_else(|| CliError::Usage("analyze needs an edge-list path".into()))?
                .clone();
            Ok(Command::Analyze { path, eps: parse_eps(&flags)?, lcc: flags.has("lcc") })
        }
        "query" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["nodes", "method", "eps", "lcc"])?;
            if flags.has("help") {
                return Ok(Command::Help);
            }
            let path = flags
                .positional
                .first()
                .ok_or_else(|| CliError::Usage("query needs an edge-list path".into()))?
                .clone();
            let nodes_raw = flags
                .get("nodes")
                .ok_or_else(|| CliError::Usage("query needs --nodes A,B,C".into()))?;
            let nodes: Result<Vec<usize>, _> =
                nodes_raw.split(',').map(|t| t.trim().parse::<usize>()).collect();
            let nodes = nodes
                .map_err(|_| CliError::Usage(format!("bad --nodes list {nodes_raw:?}")))?;
            if nodes.is_empty() {
                return Err(CliError::Usage("--nodes list is empty".into()));
            }
            let method = match flags.get("method").unwrap_or("fast") {
                "exact" => QueryMethod::Exact,
                "approx" => QueryMethod::Approx,
                "fast" => QueryMethod::Fast,
                other => {
                    return Err(CliError::Usage(format!("unknown --method {other:?}")));
                }
            };
            Ok(Command::Query {
                path,
                nodes,
                method,
                eps: parse_eps(&flags)?,
                lcc: flags.has("lcc"),
            })
        }
        "optimize" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&[
                "source",
                "k",
                "algorithm",
                "problem",
                "eps",
                "threads",
                "block-size",
                "precision",
                "precond",
                "lazy",
                "lcc",
            ])?;
            if flags.has("help") {
                return Ok(Command::Help);
            }
            let path = flags
                .positional
                .first()
                .ok_or_else(|| CliError::Usage("optimize needs an edge-list path".into()))?
                .clone();
            let source = parse_usize(&flags, "source")?
                .ok_or_else(|| CliError::Usage("optimize needs --source".into()))?;
            let k = parse_usize(&flags, "k")?
                .ok_or_else(|| CliError::Usage("optimize needs --k".into()))?;
            let rem = match flags.get("problem").unwrap_or("rem") {
                "rem" => true,
                "remd" => false,
                other => {
                    return Err(CliError::Usage(format!("unknown --problem {other:?}")));
                }
            };
            let algorithm = match flags.get("algorithm").unwrap_or("minrecc") {
                "simple" => Algorithm::Simple { rem },
                "far" => Algorithm::Far,
                "cen" => Algorithm::Cen,
                "ch" => Algorithm::Ch,
                "minrecc" | "min" => Algorithm::MinRecc,
                other => {
                    return Err(CliError::Usage(format!("unknown --algorithm {other:?}")));
                }
            };
            Ok(Command::Optimize {
                path,
                source,
                k,
                algorithm,
                eps: parse_eps(&flags)?,
                threads: parse_usize(&flags, "threads")?.unwrap_or(0),
                block_size: parse_usize(&flags, "block-size")?.unwrap_or(0),
                precision: parse_precision(&flags)?,
                precond: parse_precond(&flags)?,
                lazy: flags.has("lazy"),
                lcc: flags.has("lcc"),
            })
        }
        "generate" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&["model", "n", "param", "seed", "dataset", "out"])?;
            if flags.has("help") {
                return Ok(Command::Help);
            }
            let model = match flags.get("model").unwrap_or("ba") {
                "ba" => Model::Ba,
                "hk" => Model::Hk,
                "ws" => Model::Ws,
                "er" => Model::Er,
                "powerlaw" => Model::PowerLaw,
                "dataset" => Model::DatasetAnalog,
                other => return Err(CliError::Usage(format!("unknown --model {other:?}"))),
            };
            let n = parse_usize(&flags, "n")?.unwrap_or(1000);
            let param: f64 = match flags.get("param") {
                None => match model {
                    Model::Er => 0.01,
                    Model::PowerLaw => 2.5,
                    _ => 3.0,
                },
                Some(v) => v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --param value {v:?}")))?,
            };
            let seed: u64 = match flags.get("seed") {
                None => 42,
                Some(v) => {
                    v.parse().map_err(|_| CliError::Usage(format!("bad --seed value {v:?}")))?
                }
            };
            Ok(Command::Generate {
                model,
                n,
                param,
                seed,
                dataset: flags.get("dataset").map(|s| s.to_string()),
                out: flags.get("out").map(|s| s.to_string()),
            })
        }
        "sketch-build" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&[
                "out",
                "eps",
                "seed",
                "precision",
                "precond",
                "lcc",
                "verify",
            ])?;
            if flags.has("help") {
                return Ok(Command::Help);
            }
            let path = flags
                .positional
                .first()
                .ok_or_else(|| CliError::Usage("sketch-build needs an edge-list path".into()))?
                .clone();
            let out = flags
                .get("out")
                .ok_or_else(|| CliError::Usage("sketch-build needs --out SNAPSHOT".into()))?
                .to_string();
            let seed: u64 = match flags.get("seed") {
                None => 42,
                Some(v) => {
                    v.parse().map_err(|_| CliError::Usage(format!("bad --seed value {v:?}")))?
                }
            };
            Ok(Command::SketchBuild {
                path,
                out,
                eps: parse_eps(&flags)?,
                seed,
                precision: parse_precision(&flags)?,
                precond: parse_precond(&flags)?,
                lcc: flags.has("lcc"),
                verify: flags.has("verify"),
            })
        }
        "sketch-info" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&[])?;
            if flags.has("help") {
                return Ok(Command::Help);
            }
            let path = flags
                .positional
                .first()
                .ok_or_else(|| CliError::Usage("sketch-info needs a snapshot path".into()))?
                .clone();
            Ok(Command::SketchInfo { path })
        }
        "serve" => {
            let flags = Flags::parse(rest)?;
            flags.reject_unknown(&[
                "snapshot",
                "addr",
                "threads",
                "queue-depth",
                "eps",
                "precision",
                "precond",
                "lcc",
                "wal-dir",
                "error-budget",
                "max-jobs",
                "job-dir",
                "max-connections",
                "idle-timeout",
                "write-buffer-cap",
            ])?;
            if flags.has("help") {
                return Ok(Command::Help);
            }
            let path = flags
                .positional
                .first()
                .ok_or_else(|| CliError::Usage("serve needs an edge-list path".into()))?
                .clone();
            // 0 = auto: resolved against hardware parallelism by the pool
            // through `reecc_core::resolve_threads`, the same helper the
            // sketch build's partitioner uses.
            let threads = parse_usize(&flags, "threads")?.unwrap_or(4);
            let queue_depth = parse_usize(&flags, "queue-depth")?.unwrap_or(256);
            if queue_depth == 0 {
                return Err(CliError::Usage("--queue-depth must be at least 1".into()));
            }
            let error_budget = flags
                .get("error-budget")
                .map(|v| {
                    let budget: f64 = v.parse().map_err(|_| {
                        CliError::Usage(format!("bad --error-budget value {v:?}"))
                    })?;
                    if !budget.is_finite() || budget <= 0.0 {
                        return Err(CliError::Usage(
                            "--error-budget must be a positive number".to_string(),
                        ));
                    }
                    Ok(budget)
                })
                .transpose()?;
            let max_connections = parse_usize(&flags, "max-connections")?.unwrap_or(64);
            if max_connections == 0 {
                return Err(CliError::Usage("--max-connections must be at least 1".into()));
            }
            let idle_timeout_secs = parse_usize(&flags, "idle-timeout")?.unwrap_or(300) as u64;
            if idle_timeout_secs == 0 {
                return Err(CliError::Usage("--idle-timeout must be at least 1 second".into()));
            }
            let write_buffer_cap =
                parse_usize(&flags, "write-buffer-cap")?.unwrap_or(256 * 1024);
            if write_buffer_cap < 1024 {
                return Err(CliError::Usage(
                    "--write-buffer-cap must be at least 1024 bytes".into(),
                ));
            }
            Ok(Command::Serve {
                path,
                snapshot: flags.get("snapshot").map(|s| s.to_string()),
                addr: flags.get("addr").map(|s| s.to_string()),
                threads,
                queue_depth,
                eps: parse_eps(&flags)?,
                precision: parse_precision(&flags)?,
                precond: parse_precond(&flags)?,
                lcc: flags.has("lcc"),
                wal_dir: flags.get("wal-dir").map(|s| s.to_string()),
                error_budget,
                max_jobs: parse_usize(&flags, "max-jobs")?.unwrap_or(1),
                job_dir: flags.get("job-dir").map(|s| s.to_string()),
                max_connections,
                idle_timeout_secs,
                write_buffer_cap,
            })
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, CliError> {
        parse_command(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn empty_and_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["--help"]).unwrap(), Command::Help);
    }

    #[test]
    fn analyze_defaults() {
        let cmd = parse(&["analyze", "g.txt"]).unwrap();
        assert_eq!(cmd, Command::Analyze { path: "g.txt".into(), eps: 0.3, lcc: false });
    }

    #[test]
    fn lcc_flag_is_boolean() {
        let cmd = parse(&["analyze", "g.txt", "--lcc", "--eps", "0.2"]).unwrap();
        assert!(matches!(cmd, Command::Analyze { lcc: true, .. }));
        let cmd = parse(&["query", "g.txt", "--nodes", "1", "--lcc"]).unwrap();
        assert!(matches!(cmd, Command::Query { lcc: true, .. }));
    }

    #[test]
    fn analyze_with_eps() {
        let cmd = parse(&["analyze", "g.txt", "--eps", "0.2"]).unwrap();
        assert!(matches!(cmd, Command::Analyze { eps, .. } if (eps - 0.2).abs() < 1e-12));
    }

    #[test]
    fn query_full() {
        let cmd = parse(&["query", "g.txt", "--nodes", "1,2,3", "--method", "exact"]).unwrap();
        match cmd {
            Command::Query { nodes, method, .. } => {
                assert_eq!(nodes, vec![1, 2, 3]);
                assert_eq!(method, QueryMethod::Exact);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn optimize_full() {
        let cmd = parse(&[
            "optimize",
            "g.txt",
            "--source",
            "4",
            "--k",
            "3",
            "--algorithm",
            "simple",
            "--problem",
            "remd",
        ])
        .unwrap();
        match cmd {
            Command::Optimize { source, k, algorithm, threads, block_size, lazy, .. } => {
                assert_eq!(source, 4);
                assert_eq!(k, 3);
                assert_eq!(algorithm, Algorithm::Simple { rem: false });
                assert_eq!(threads, 0, "default = auto");
                assert_eq!(block_size, 0, "default = adaptive");
                assert!(!lazy);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn optimize_engine_knobs() {
        let cmd = parse(&[
            "optimize",
            "g.txt",
            "--source",
            "0",
            "--k",
            "2",
            "--threads",
            "4",
            "--block-size",
            "16",
            "--lazy",
        ])
        .unwrap();
        match cmd {
            Command::Optimize { threads, block_size, lazy, .. } => {
                assert_eq!(threads, 4);
                assert_eq!(block_size, 16);
                assert!(lazy);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precision_and_precond_flags_parse_with_defaults() {
        // Defaults: f64 + jacobi everywhere the flags are accepted.
        let cmd = parse(&["sketch-build", "g.txt", "--out", "s.bin"]).unwrap();
        assert!(matches!(
            cmd,
            Command::SketchBuild {
                precision: PrecisionArg::F64,
                precond: PrecondArg::Jacobi,
                ..
            }
        ));
        let cmd = parse(&[
            "sketch-build",
            "g.txt",
            "--out",
            "s.bin",
            "--precision",
            "mixed",
            "--precond",
            "cheby",
        ])
        .unwrap();
        assert!(matches!(
            cmd,
            Command::SketchBuild {
                precision: PrecisionArg::Mixed,
                precond: PrecondArg::Cheby,
                ..
            }
        ));
        let cmd =
            parse(&["optimize", "g.txt", "--source", "0", "--k", "1", "--precond", "sgs"])
                .unwrap();
        assert!(matches!(cmd, Command::Optimize { precond: PrecondArg::Sgs, .. }));
        let cmd =
            parse(&["serve", "g.txt", "--precision", "mixed", "--precond", "none"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Serve { precision: PrecisionArg::Mixed, precond: PrecondArg::None, .. }
        ));
        // Bad values are targeted usage errors.
        for bad in [
            vec!["sketch-build", "g.txt", "--out", "s", "--precision", "f32"],
            vec!["sketch-build", "g.txt", "--out", "s", "--precond", "ilu"],
            vec!["serve", "g.txt", "--precision", ""],
        ] {
            assert!(matches!(parse(&bad), Err(CliError::Usage(_))), "{bad:?}");
        }
        // Flags are rejected where they make no sense (no sketch involved).
        assert!(matches!(
            parse(&["sketch-info", "s.bin", "--precision", "mixed"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn generate_variants() {
        let cmd = parse(&["generate", "--model", "powerlaw", "--n", "500", "--param", "2.7"])
            .unwrap();
        match cmd {
            Command::Generate { model, n, param, .. } => {
                assert_eq!(model, Model::PowerLaw);
                assert_eq!(n, 500);
                assert!((param - 2.7).abs() < 1e-12);
            }
            other => panic!("{other:?}"),
        }
        let cmd =
            parse(&["generate", "--model", "dataset", "--dataset", "politician"]).unwrap();
        assert!(matches!(
            cmd,
            Command::Generate { model: Model::DatasetAnalog, dataset: Some(_), .. }
        ));
    }

    #[test]
    fn sketch_build_and_info() {
        let cmd = parse(&[
            "sketch-build",
            "g.txt",
            "--out",
            "g.sketch",
            "--eps",
            "0.4",
            "--seed",
            "7",
        ])
        .unwrap();
        match cmd {
            Command::SketchBuild { path, out, eps, seed, lcc, verify, .. } => {
                assert_eq!((path.as_str(), out.as_str()), ("g.txt", "g.sketch"));
                assert!((eps - 0.4).abs() < 1e-12);
                assert_eq!((seed, lcc, verify), (7, false, false));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            parse(&["sketch-info", "g.sketch"]).unwrap(),
            Command::SketchInfo { path: "g.sketch".into() }
        );
        let cmd = parse(&["sketch-build", "g.txt", "--out", "g.sketch", "--verify"]).unwrap();
        assert!(matches!(cmd, Command::SketchBuild { verify: true, .. }));
    }

    #[test]
    fn serve_defaults_to_pipe_mode() {
        let cmd = parse(&["serve", "g.txt"]).unwrap();
        match cmd {
            Command::Serve { path, snapshot, addr, threads, queue_depth, .. } => {
                assert_eq!(path, "g.txt");
                assert_eq!((snapshot, addr), (None, None));
                assert_eq!((threads, queue_depth), (4, 256));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "serve",
            "g.txt",
            "--snapshot",
            "g.sketch",
            "--addr",
            "127.0.0.1:7878",
            "--threads",
            "8",
            "--queue-depth",
            "32",
        ])
        .unwrap();
        match cmd {
            Command::Serve {
                snapshot,
                addr,
                threads,
                queue_depth,
                wal_dir,
                error_budget,
                ..
            } => {
                assert_eq!(snapshot.as_deref(), Some("g.sketch"));
                assert_eq!(addr.as_deref(), Some("127.0.0.1:7878"));
                assert_eq!((threads, queue_depth), (8, 32));
                assert_eq!((wal_dir, error_budget), (None, None));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serve_wal_flags_parse_and_validate() {
        let cmd = parse(&["serve", "g.txt", "--wal-dir", "/tmp/wal", "--error-budget", "0.75"])
            .unwrap();
        match cmd {
            Command::Serve { wal_dir, error_budget, .. } => {
                assert_eq!(wal_dir.as_deref(), Some("/tmp/wal"));
                assert_eq!(error_budget, Some(0.75));
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            vec!["serve", "g.txt", "--error-budget", "0"],
            vec!["serve", "g.txt", "--error-budget", "-1"],
            vec!["serve", "g.txt", "--error-budget", "nan"],
            vec!["serve", "g.txt", "--error-budget", "x"],
        ] {
            assert!(matches!(parse(&bad), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn serve_transport_flags_parse_and_validate() {
        let cmd = parse(&["serve", "g.txt"]).unwrap();
        match cmd {
            Command::Serve { max_connections, idle_timeout_secs, write_buffer_cap, .. } => {
                assert_eq!(max_connections, 64);
                assert_eq!(idle_timeout_secs, 300);
                assert_eq!(write_buffer_cap, 256 * 1024);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&[
            "serve",
            "g.txt",
            "--max-connections",
            "1024",
            "--idle-timeout",
            "30",
            "--write-buffer-cap",
            "4096",
        ])
        .unwrap();
        match cmd {
            Command::Serve { max_connections, idle_timeout_secs, write_buffer_cap, .. } => {
                assert_eq!(max_connections, 1024);
                assert_eq!(idle_timeout_secs, 30);
                assert_eq!(write_buffer_cap, 4096);
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            vec!["serve", "g.txt", "--max-connections", "0"],
            vec!["serve", "g.txt", "--max-connections", "x"],
            vec!["serve", "g.txt", "--idle-timeout", "0"],
            vec!["serve", "g.txt", "--write-buffer-cap", "512"],
        ] {
            assert!(matches!(parse(&bad), Err(CliError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn serve_job_flags_parse_with_defaults() {
        let cmd = parse(&["serve", "g.txt"]).unwrap();
        match cmd {
            Command::Serve { max_jobs, job_dir, .. } => {
                assert_eq!(max_jobs, 1, "one background job slot by default");
                assert_eq!(job_dir, None);
            }
            other => panic!("{other:?}"),
        }
        let cmd =
            parse(&["serve", "g.txt", "--max-jobs", "3", "--job-dir", "/tmp/jobs"]).unwrap();
        match cmd {
            Command::Serve { max_jobs, job_dir, .. } => {
                assert_eq!(max_jobs, 3);
                assert_eq!(job_dir.as_deref(), Some("/tmp/jobs"));
            }
            other => panic!("{other:?}"),
        }
        // 0 is the explicit off switch, not an error.
        match parse(&["serve", "g.txt", "--max-jobs", "0"]) {
            Ok(Command::Serve { max_jobs: 0, .. }) => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&["serve", "g.txt", "--max-jobs", "x"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_and_sketch_usage_errors() {
        assert!(matches!(parse(&["sketch-build", "g.txt"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["sketch-info"]), Err(CliError::Usage(_))));
        // --threads 0 is the auto setting, not an error.
        match parse(&["serve", "g.txt", "--threads", "0"]) {
            Ok(Command::Serve { threads, .. }) => assert_eq!(threads, 0),
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse(&["serve", "g.txt", "--queue-depth", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["sketch-info", "g.sketch", "--bogus", "1"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_errors_are_specific() {
        assert!(matches!(parse(&["analyze"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["query", "g.txt"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["query", "g.txt", "--nodes", "x"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["optimize", "g.txt", "--k", "3"]), Err(CliError::Usage(_))));
        assert!(matches!(parse(&["frobnicate"]), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&["analyze", "g.txt", "--eps", "2.0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse(&["analyze", "g.txt", "--bogus", "1"]),
            Err(CliError::Usage(_))
        ));
    }
}

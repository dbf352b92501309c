//! End-to-end tests for optimization-as-a-service: NDJSON job sessions
//! over the pipe transport, checkpointed resume after a mid-job
//! interruption (bitwise-identical plans across thread and block-size
//! settings), cooperative cancellation, and panic containment.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use reecc_core::{QueryEngine, SketchParams};
use reecc_graph::generators::barabasi_albert;
use reecc_graph::Graph;
use reecc_opt::{simple_greedy_with_diagnostics, Problem, SimpleOptions};
use reecc_serve::failpoint::{self, Action};
use reecc_serve::jobs::{JobRunner, JobSpec, JobsConfig, OptimizerKind};
use reecc_serve::json::Json;
use reecc_serve::{serve_pipe, LiveEngine, PoolConfig, ServePool};

const EPS: f64 = 0.4;
const WAIT: Duration = Duration::from_secs(120);

/// Failpoint sites are process-global; tests that arm them, or run a job
/// through them, serialize.
static FP_LOCK: Mutex<()> = Mutex::new(());

fn graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| barabasi_albert(80, 2, 77))
}

fn engine() -> Arc<QueryEngine> {
    static ENGINE: OnceLock<Arc<QueryEngine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        Arc::new(
            QueryEngine::build(
                graph(),
                &SketchParams { epsilon: EPS, seed: 21, ..Default::default() },
            )
            .expect("BA graph is connected"),
        )
    }))
}

fn live() -> Arc<LiveEngine> {
    LiveEngine::ephemeral(engine(), None)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reecc-jobs-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spec(optimizer: OptimizerKind, threads: usize, block_size: usize) -> JobSpec {
    JobSpec {
        optimizer,
        source: 3,
        k: 3,
        eps: EPS,
        threads,
        block_size,
        lazy: matches!(optimizer, OptimizerKind::Simple),
        remd: true,
        seed: 13,
    }
}

fn runner(dir: Option<&PathBuf>) -> Arc<JobRunner> {
    JobRunner::start(
        live(),
        &JobsConfig { max_jobs: 1, queue_depth: 8, job_dir: dir.cloned() },
        Box::new(|| false),
    )
    .unwrap()
}

fn finished_plan(runner: &JobRunner, id: u64, want: &str) -> Vec<(usize, usize, f64)> {
    let report = runner.wait(id, WAIT).unwrap();
    assert_eq!(report.state, want, "job {id}: {:?}", report.detail);
    report.plan
}

#[test]
fn pipe_session_runs_a_job_to_a_plan_matching_the_direct_optimizer() {
    // Its job passes the `job.iterate` site, which other tests arm with a
    // one-shot panic: without the lock this job can take that panic.
    let _fp = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let pool = ServePool::with_live_and_jobs(
        live(),
        PoolConfig { threads: 2, queue_depth: 32, ..Default::default() },
        Some(JobsConfig { max_jobs: 1, queue_depth: 8, job_dir: None }),
    )
    .unwrap();
    let input = "{\"op\":\"optimize-submit\",\"optimizer\":\"simple\",\"s\":3,\"k\":3,\
                 \"eps\":0.4,\"threads\":1,\"lazy\":true,\"seed\":13,\"id\":1}\n\
                 {\"op\":\"optimize-events\",\"job\":0,\"follow\":true}\n\
                 {\"op\":\"optimize-result\",\"job\":0,\"wait\":true}\n\
                 {\"op\":\"stats\"}\n";
    let mut out = Vec::new();
    let stats = serve_pipe(&pool, input.as_bytes(), &mut out).unwrap();
    assert_eq!(stats.errors, 0, "{}", String::from_utf8_lossy(&out));
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    // submit ack + 3 event lines + events closing status + result + stats.
    assert_eq!(lines.len(), 7, "{text}");
    assert_eq!(lines[0].get("state").and_then(Json::as_str), Some("queued"));
    for (i, line) in lines[1..4].iter().enumerate() {
        assert_eq!(line.get("event").and_then(Json::as_bool), Some(true), "{text}");
        assert_eq!(line.get("iteration").and_then(Json::as_usize), Some(i), "{text}");
    }
    assert_eq!(lines[4].get("state").and_then(Json::as_str), Some("completed"));

    // The served plan is bitwise the direct CLI-batch answer.
    let (direct_plan, _) = simple_greedy_with_diagnostics(
        graph(),
        Problem::Remd,
        3,
        3,
        SimpleOptions { threads: 1, lazy: true },
    )
    .unwrap();
    let Some(Json::Arr(plan)) = lines[5].get("plan").cloned() else {
        panic!("optimize-result must carry a plan: {text}");
    };
    assert_eq!(plan.len(), direct_plan.len());
    for (step, expect) in plan.iter().zip(&direct_plan) {
        let Json::Arr(triple) = step else { panic!("{step:?}") };
        assert_eq!(triple[0].as_usize(), Some(expect.u));
        assert_eq!(triple[1].as_usize(), Some(expect.v));
    }
    let jobs_completed = lines[6].get("jobs_completed").and_then(Json::as_f64);
    assert_eq!(jobs_completed, Some(1.0), "{text}");
}

#[test]
fn interrupted_jobs_resume_bitwise_across_thread_and_block_settings() {
    let _fp = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // (optimizer, threads, block_size): resumed plans must be bitwise
    // identical to uninterrupted ones whatever the parallel layout.
    let combos = [
        (OptimizerKind::Simple, 1, 0),
        (OptimizerKind::Simple, 2, 8),
        (OptimizerKind::MinRecc, 1, 0),
        (OptimizerKind::MinRecc, 2, 8),
    ];
    for (i, &(kind, threads, block)) in combos.iter().enumerate() {
        let spec = spec(kind, threads, block);
        // Reference: the same spec run start-to-finish, no interruption.
        let reference = {
            let r = runner(None);
            let id = r.submit(spec).unwrap();
            let plan = finished_plan(&r, id, "completed");
            r.shutdown();
            plan
        };
        assert_eq!(reference.len(), 3);

        // Interrupted run: slow iterations down, shut the runner down as
        // soon as the first checkpoint has landed (mid-job), leaving the
        // checkpoint file behind.
        let dir = temp_dir(&format!("resume-{i}"));
        {
            failpoint::configure("job.iterate", Action::Delay(60), None);
            let r = runner(Some(&dir));
            let id = r.submit(spec).unwrap();
            assert_eq!(id, 0);
            let deadline = Instant::now() + WAIT;
            while r.status(id).unwrap().iterations < 1 {
                assert!(Instant::now() < deadline, "first checkpoint never landed");
                std::thread::sleep(Duration::from_millis(5));
            }
            r.shutdown();
            failpoint::clear("job.iterate");
            let report = r.status(id).unwrap();
            assert!(
                report.state == "failed" && report.detail.contains("shutdown"),
                "interruption must be reported, checkpoint kept: {report:?}"
            );
        }
        let checkpoint = dir.join("job-0.reeccjob");
        assert!(checkpoint.exists(), "shutdown must keep the checkpoint");

        // A fresh process over the same job dir resumes and completes.
        let r = runner(Some(&dir));
        assert_eq!(r.resumed_on_start(), 1);
        let resumed = finished_plan(&r, 0, "completed");
        let report = r.status(0).unwrap();
        assert!(report.resumed >= 1, "{report:?}");
        r.shutdown();

        assert_eq!(resumed.len(), reference.len(), "combo {kind:?}/{threads}t/b{block}");
        for (a, b) in resumed.iter().zip(&reference) {
            assert_eq!((a.0, a.1), (b.0, b.1), "combo {kind:?}/{threads}t/b{block}");
            assert_eq!(
                a.2.to_bits(),
                b.2.to_bits(),
                "scores must be bitwise equal: combo {kind:?}/{threads}t/b{block}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn protocol_cancel_stops_a_running_job_cleanly() {
    let _fp = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::configure("job.iterate", Action::Delay(60), None);
    let pool = ServePool::with_live_and_jobs(
        live(),
        PoolConfig { threads: 1, queue_depth: 16, ..Default::default() },
        Some(JobsConfig { max_jobs: 1, queue_depth: 8, job_dir: None }),
    )
    .unwrap();
    let runner = pool.jobs().unwrap();
    let id = runner.submit(spec(OptimizerKind::Simple, 1, 0)).unwrap();
    // Cancel through the protocol once the job is actually running.
    let deadline = Instant::now() + WAIT;
    while runner.status(id).unwrap().state == "queued" {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    let input = format!("{{\"op\":\"optimize-cancel\",\"job\":{id}}}\n");
    let mut out = Vec::new();
    serve_pipe(&pool, input.as_bytes(), &mut out).unwrap();
    failpoint::clear("job.iterate");
    let report = runner.wait(id, WAIT).unwrap();
    assert_eq!(report.state, "cancelled", "{report:?}");
    assert!(
        (report.iterations as usize) < 3,
        "cancel must stop before the budget is spent: {report:?}"
    );
    // The runner thread survives: the next job completes normally.
    let next = runner.submit(spec(OptimizerKind::Simple, 1, 0)).unwrap();
    let plan = finished_plan(runner, next, "completed");
    assert_eq!(plan.len(), 3);
}

#[test]
fn a_panicking_job_fails_alone_and_the_runner_keeps_serving() {
    let _fp = FP_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let r = runner(None);
    failpoint::configure("job.iterate", Action::Panic, Some(1));
    let poisoned = r.submit(spec(OptimizerKind::Simple, 1, 0)).unwrap();
    let report = r.wait(poisoned, WAIT).unwrap();
    failpoint::clear("job.iterate");
    assert_eq!(report.state, "failed", "{report:?}");
    assert!(report.detail.contains("panic"), "{report:?}");
    let next = r.submit(spec(OptimizerKind::Simple, 1, 0)).unwrap();
    let plan = finished_plan(&r, next, "completed");
    assert_eq!(plan.len(), 3);
    r.shutdown();
}

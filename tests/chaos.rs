//! Chaos tests: deterministic fault injection against the serving stack.
//!
//! Each scenario arms a named failpoint (`reecc_serve::failpoint`), drives
//! the system through the fault, and asserts the *containment* contract —
//! a panic costs exactly one request, a write fault never leaves a partial
//! snapshot at the target path, and a drain under load accounts for every
//! submitted request.
//!
//! The failpoint registry is process-global and the test harness runs
//! tests concurrently, so every test that arms a shared site serializes
//! on [`chaos_lock`] (poison-tolerant: an assert failure in one test must
//! not cascade into "poisoned lock" noise in the others).

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use reecc_core::{exact_query, ExactResistance, QueryEngine, SketchParams};
use reecc_graph::generators::barabasi_albert;
use reecc_graph::Graph;
use reecc_serve::failpoint::{self, Action};
use reecc_serve::{
    LiveConfig, LiveEngine, LiveError, PoolConfig, Request, RequestEnvelope, ServePool,
    SketchSnapshot, SnapshotError, WalOp,
};

const N: usize = 120;
const EPS: f64 = 0.35;

fn graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| barabasi_albert(N, 2, 777))
}

fn engine() -> Arc<QueryEngine> {
    static ENGINE: OnceLock<Arc<QueryEngine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        Arc::new(
            QueryEngine::build(
                graph(),
                &SketchParams { epsilon: EPS, seed: 31, ..Default::default() },
            )
            .expect("BA graph is connected"),
        )
    }))
}

/// Serialize failpoint-arming tests; tolerate poisoning so one failing
/// test does not turn its siblings into lock panics.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reecc-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn ecc_request(v: usize, id: u64) -> RequestEnvelope {
    RequestEnvelope { id: Some(id), deadline_ms: None, request: Request::Ecc { v } }
}

/// Scenario 1 (worker supervision): a panic injected into worker compute
/// must come back as a structured `internal` error on *that* request, the
/// worker must be respawned, and the next 100 requests must be answered
/// correctly — within the sketch's ε guarantee of exact resistance
/// eccentricity.
#[test]
fn injected_worker_panic_is_contained_and_the_pool_keeps_answering_correctly() {
    let _guard = chaos_lock();
    failpoint::clear("worker.compute");
    let pool = ServePool::new(
        engine(),
        PoolConfig { threads: 2, queue_depth: 64, ..Default::default() },
    );

    // Arm: exactly one hit panics, then the site disarms itself.
    failpoint::configure("worker.compute", Action::Panic, Some(1));
    let response = pool.run(ecc_request(3, 1));
    let rendered = response.render();
    assert!(!response.is_ok(), "the panicked request must fail: {rendered}");
    assert!(
        rendered.contains("\"error\":\"internal\"") && rendered.contains("panic"),
        "panic must surface as a structured internal error: {rendered}"
    );
    assert_eq!(failpoint::fired("worker.compute"), 1);
    assert_eq!(pool.panics_total(), 1, "the panic must be counted");

    // Follow-ups: 100 requests, all answered, all within ε of exact.
    let nodes: Vec<usize> = (0..100).map(|i| (i * 7) % N).collect();
    let exact = exact_query(graph(), &nodes).unwrap();
    for (i, (v, truth)) in exact.into_iter().enumerate() {
        let response = pool.run(ecc_request(v, 100 + i as u64));
        let rendered = response.render();
        assert!(response.is_ok(), "request {i} after the panic failed: {rendered}");
        let got = extract_value(&rendered);
        assert!(
            (got - truth).abs() <= EPS * truth + 1e-9,
            "c({v}) = {got} vs exact {truth} (request {i} after panic)"
        );
    }
    assert!(
        pool.workers_respawned() >= 1,
        "the supervisor must have respawned the panicked worker"
    );
    failpoint::clear("worker.compute");
}

/// Scenario 1b (the carry rule): a worker that drains a coalesced flush
/// and meets a non-coalescible job behind it carries that job as a flush
/// of its own. When the flush panics, only the flush's requests answer
/// `internal`; the carried job is still computed, and the pool still
/// accounts for every request.
#[test]
fn a_carried_job_survives_a_panicking_flush() {
    let _guard = chaos_lock();
    failpoint::clear("worker.compute");
    let pool = ServePool::new(
        engine(),
        PoolConfig { threads: 1, queue_depth: 16, ..Default::default() },
    );
    // Park the single worker inside the reply closure of a warm-up job
    // (replies run on the worker thread), so the next three requests queue
    // up behind it and one dequeue pulls them all.
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    pool.submit_with(
        ecc_request(0, 0),
        Box::new(move |resp| {
            gate_rx.recv().expect("gate sender lives");
            let _ = first_tx.send(resp);
        }),
    )
    .unwrap();
    // The worker counts a job as served before calling its reply.
    while pool.served() < 1 {
        std::thread::yield_now();
    }
    let res = RequestEnvelope {
        id: Some(3),
        deadline_ms: None,
        request: Request::Res { u: 0, v: 3 },
    };
    let rxs: Vec<_> = [ecc_request(1, 1), ecc_request(2, 2), res]
        .into_iter()
        .map(|env| pool.submit(env).unwrap())
        .collect();
    // Armed only now: the warm-up job has already passed its compute hit.
    failpoint::configure("worker.compute", Action::Panic, Some(1));
    gate_tx.send(()).unwrap();
    assert!(first_rx.recv().unwrap().is_ok());
    let replies: Vec<_> =
        rxs.into_iter().map(|rx| rx.recv().expect("every request is answered")).collect();
    for reply in &replies[..2] {
        let rendered = reply.render();
        assert!(
            rendered.contains("\"error\":\"internal\"") && rendered.contains("panic"),
            "the panicked flush answers each of its requests internal: {rendered}"
        );
    }
    assert!(replies[2].is_ok(), "the carried res must be computed: {}", replies[2].render());
    assert_eq!(failpoint::fired("worker.compute"), 1);
    assert_eq!(pool.panics_total(), 1, "one panic, however many requests it cost");

    // The panicked worker exited after the carry; the follow-up needs its
    // replacement.
    assert!(pool.run(ecc_request(4, 4)).is_ok());
    let report = pool.drain(Duration::from_secs(5));
    failpoint::clear("worker.compute");
    assert!(pool.workers_respawned() >= 1, "{report:?}");
    assert_eq!(report.submitted, 5, "{report:?}");
    assert_eq!(report.answered + report.dropped, report.submitted, "{report:?}");
}

/// Pull `"value":X` out of a rendered response line.
fn extract_value(rendered: &str) -> f64 {
    let start = rendered.find("\"value\":").expect("ok response carries a value") + 8;
    let rest = &rendered[start..];
    let end = rest.find([',', '}']).unwrap();
    rest[..end].parse().expect("numeric value")
}

/// Scenario 2 (atomic snapshots): an I/O fault injected into the commit
/// window of `save` — after the temp file is written, before the rename —
/// must never leave a partial or corrupt file at the target path. Either
/// the old content survives intact or the target does not exist; temp
/// files never accumulate.
#[test]
fn injected_write_fault_never_exposes_a_partial_snapshot() {
    let _guard = chaos_lock();
    failpoint::clear("snapshot.write");
    let snap = SketchSnapshot::from_engine(&engine());
    let path = temp_path("atomic-under-fault.sketch");
    let _ = std::fs::remove_file(&path);

    // Fault on a fresh target: save fails, nothing appears at the path.
    failpoint::configure("snapshot.write", Action::IoError, Some(1));
    let err = snap.save(&path).unwrap_err();
    assert!(matches!(err, SnapshotError::Io(_)), "injected fault is transient I/O: {err:?}");
    assert!(!path.exists(), "a failed first save must not create the target");

    // Establish good content, then fault an overwrite: the old bytes must
    // survive byte-for-byte.
    snap.save(&path).unwrap();
    let before = std::fs::read(&path).unwrap();
    failpoint::configure("snapshot.write", Action::IoError, Some(1));
    snap.save(&path).unwrap_err();
    let after = std::fs::read(&path).unwrap();
    assert_eq!(before, after, "a failed overwrite must leave the old snapshot untouched");
    // And what is on disk still loads cleanly.
    SketchSnapshot::load(&path).unwrap();

    // No temp droppings in the directory, across both failed saves.
    let dir = path.parent().unwrap();
    let stray: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains(".tmp."))
        .collect();
    assert!(stray.is_empty(), "failed saves must clean their temp files: {stray:?}");
    failpoint::clear("snapshot.write");
}

/// Scenario 3 (graceful drain): drain a pool that still has queued work —
/// with a compute delay armed so the queue is genuinely backed up — and
/// check the books: the drain finishes within its deadline and every
/// submitted request is either answered or reported dropped.
#[test]
fn drain_under_load_meets_its_deadline_and_accounts_for_every_request() {
    let _guard = chaos_lock();
    failpoint::clear("worker.compute");
    let pool = ServePool::new(
        engine(),
        PoolConfig { threads: 2, queue_depth: 64, ..Default::default() },
    );

    // Slow every compute down so submissions outpace the workers.
    failpoint::configure("worker.compute", Action::Delay(30), None);
    let mut receivers = Vec::new();
    let mut submitted = 0u64;
    for i in 0..40usize {
        match pool.submit(ecc_request(i % N, i as u64)) {
            Ok(rx) => {
                submitted += 1;
                receivers.push(rx);
            }
            Err(e) => panic!("queue depth 64 must accept 40 requests: {e:?}"),
        }
    }

    // Drain with a deadline shorter than the remaining work (40 × 30 ms
    // across 2 workers ≈ 600 ms of queue) so some requests are dropped.
    let grace = Duration::from_millis(250);
    let started = Instant::now();
    let report = pool.drain(grace);
    let elapsed = started.elapsed();
    failpoint::clear("worker.compute");

    assert!(
        elapsed < grace + Duration::from_secs(5),
        "drain must not run far past its deadline: {elapsed:?}"
    );
    assert_eq!(report.submitted, submitted, "drain report counts what we submitted");
    assert_eq!(
        report.answered + report.dropped,
        report.submitted,
        "every request is either answered or reported dropped: {report:?}"
    );
    assert!(report.dropped > 0, "an over-deadline drain must drop something: {report:?}");

    // Every receiver got *some* response — dropped requests get a
    // structured `draining` error, not a hung channel.
    let mut draining_errors = 0u64;
    for rx in receivers {
        let response = rx.recv().expect("no request may be silently abandoned");
        if response.render().contains("\"error\":\"draining\"") {
            draining_errors += 1;
        }
    }
    assert_eq!(
        draining_errors, report.dropped,
        "dropped requests must be told they were dropped"
    );
}

/// Scenario 4 (durability chaos): a stream of random mutations against a
/// WAL-backed live engine, with an fsync fault injected mid-stream, then a
/// simulated crash (nothing flushed beyond the WAL's acks) and a restart
/// from the directory alone. The contract: the faulted mutation is a typed
/// error with no partial state, replay reproduces the pre-crash sketch
/// bitwise, and every pairwise resistance of the recovered engine matches
/// a from-scratch exact computation on the mutated graph within the sketch
/// guarantee plus the accumulated error-budget spend.
#[test]
fn random_mutations_survive_a_wal_fault_and_a_crash_restart() {
    let _guard = chaos_lock();
    failpoint::clear("wal.append");
    let dir = temp_path("live-chaos-wal");
    let _ = std::fs::remove_dir_all(&dir);
    // A huge budget keeps the background re-sketch out of this scenario;
    // scenario 5 covers the swap path.
    let config = LiveConfig { wal_dir: Some(dir.clone()), error_budget: Some(1e9) };
    let (live, recovered) = LiveEngine::open(engine(), &config).unwrap();
    assert!(!recovered, "fresh dir must bootstrap");

    // Deterministic LCG mutation stream, mirrored into a model edge set so
    // the final graph can be rebuilt from scratch for ground truth.
    let mut edges: std::collections::BTreeSet<(usize, usize)> =
        graph().edges().iter().map(|e| (e.u, e.v)).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 16
    };
    let mut accepted = 0u64;
    let mut spent = 0.0f64;
    let step = |live: &Arc<LiveEngine>,
                edges: &mut std::collections::BTreeSet<(usize, usize)>,
                next: &mut dyn FnMut() -> u64,
                want_remove: bool|
     -> Option<f64> {
        for _ in 0..1000 {
            let (op, u, v) = if want_remove {
                let idx = (next() % edges.len() as u64) as usize;
                let &(u, v) = edges.iter().nth(idx).unwrap();
                (WalOp::RemoveEdge, u, v)
            } else {
                let (u, v) = ((next() % N as u64) as usize, (next() % N as u64) as usize);
                if u == v || edges.contains(&(u.min(v), u.max(v))) {
                    continue;
                }
                (WalOp::AddEdge, u, v)
            };
            match live.apply_mutation(op, u, v) {
                Ok(receipt) => {
                    let key = (u.min(v), u.max(v));
                    if want_remove {
                        edges.remove(&key);
                    } else {
                        edges.insert(key);
                    }
                    return Some(receipt.cost);
                }
                // Disconnecting removals are typed rejections; pick again.
                Err(LiveError::Rejected(_)) if want_remove => continue,
                Err(e) => panic!("unexpected mutation failure ({op:?} {u} {v}): {e}"),
            }
        }
        None
    };
    for i in 0..24u64 {
        if i == 12 {
            // Mid-stream fsync fault on a guaranteed-accepted add: the ack
            // must be a typed WAL error, nothing published, nothing logged.
            let (fu, fv) = (0..N)
                .flat_map(|a| (a + 1..N).map(move |b| (a, b)))
                .find(|&(a, b)| !edges.contains(&(a, b)))
                .unwrap();
            let fp_before = live.view().fingerprint;
            failpoint::configure("wal.append", Action::IoError, Some(1));
            let err = live.apply_mutation(WalOp::AddEdge, fu, fv).unwrap_err();
            assert!(matches!(err, LiveError::Wal(_)), "fsync fault must be typed: {err}");
            assert_eq!(live.view().fingerprint, fp_before, "faulted mutation must not publish");
            assert_eq!(live.mutations_applied(), accepted, "faulted mutation must not count");
            // The rolled-back log accepts the very same mutation afterwards.
            let receipt = live.apply_mutation(WalOp::AddEdge, fu, fv).unwrap();
            edges.insert((fu, fv));
            accepted += 1;
            spent += receipt.cost;
        }
        let cost = step(&live, &mut edges, &mut next, i % 3 == 2)
            .expect("a sparse 120-node graph always has an applicable mutation");
        accepted += 1;
        spent += cost;
    }
    assert_eq!(live.mutations_applied(), accepted);
    let served = live.view();
    drop(live); // simulated kill -9: only the WAL acks survive

    let restarted = LiveEngine::recover(&dir, Some(1e9)).unwrap();
    assert_eq!(restarted.wal_replayed_on_start(), accepted);
    let view = restarted.view();
    assert_eq!(view.fingerprint, served.fingerprint, "replay must land on the same graph");

    // Ground truth: rebuild the mutated graph from the model edge set.
    let model = Graph::from_edges(N, edges.iter().copied()).unwrap();
    assert_eq!(reecc_graph::fingerprint(&model), view.fingerprint);
    let exact = ExactResistance::new(&model).unwrap();
    let tol = EPS + spent;
    for u in 0..N {
        for v in (u + 1)..N {
            let a = served.engine.resistance(u, v);
            let b = view.engine.resistance(u, v);
            assert_eq!(a.to_bits(), b.to_bits(), "r({u},{v}) replay drift: {a} vs {b}");
            let truth = exact.resistance(u, v);
            assert!(
                (b - truth).abs() <= tol * truth + 1e-9,
                "r({u},{v}): recovered {b} vs exact {truth} (tol {tol})"
            );
        }
    }
    failpoint::clear("wal.append");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario 4b (replay + swap faults): the remaining two of the four new
/// failpoint sites. A fault during startup replay must be a typed
/// `Replay` error (and a clean retry must then recover the exact state);
/// a fault at `epoch.swap` — after the new epoch is durably written,
/// before the `CURRENT` flip — must abort the commit, leave the old
/// epoch current with no orphaned files, and keep the directory fully
/// recoverable. Never a panic, never silently-wrong answers.
#[test]
fn replay_and_swap_faults_are_typed_and_leave_a_recoverable_directory() {
    let _guard = chaos_lock();
    failpoint::clear("wal.replay");
    failpoint::clear("epoch.swap");
    let dir = temp_path("live-chaos-fp");
    let _ = std::fs::remove_dir_all(&dir);
    let mut absent = (0..N)
        .flat_map(|a| (a + 1..N).map(move |b| (a, b)))
        .filter(|&(a, b)| !graph().has_edge(a, b));
    let (u1, v1) = absent.next().unwrap();
    let (u2, v2) = absent.next().unwrap();

    let config = LiveConfig { wal_dir: Some(dir.clone()), error_budget: Some(1e9) };
    let (live, _) = LiveEngine::open(engine(), &config).unwrap();
    live.apply_mutation(WalOp::AddEdge, u1, v1).unwrap();
    live.apply_mutation(WalOp::AddEdge, u2, v2).unwrap();
    let served = live.view();
    drop(live); // crash with two acked records in the WAL

    // Armed replay fault: startup must fail with a typed WAL error — not
    // panic, and not serve a half-replayed engine.
    failpoint::configure("wal.replay", Action::IoError, Some(1));
    match LiveEngine::recover(&dir, Some(1e9)) {
        Err(LiveError::Wal(_)) => {}
        Err(other) => panic!("armed wal.replay must be a typed WAL error: {other}"),
        Ok(_) => panic!("armed wal.replay must fail recovery"),
    }
    // Disarmed retry: the exact pre-crash state comes back bitwise.
    let recovered = LiveEngine::recover(&dir, Some(1e9)).unwrap();
    assert_eq!(recovered.wal_replayed_on_start(), 2);
    assert_eq!(recovered.view().fingerprint, served.fingerprint);
    let (a, b) = (served.engine.resistance(u1, v2), recovered.view().engine.resistance(u1, v2));
    assert_eq!(a.to_bits(), b.to_bits(), "replay drift: {a} vs {b}");

    // Armed swap fault: drain the budget so a re-sketch runs, and fail the
    // commit between "new epoch durable" and "CURRENT flips". The old
    // epoch must stay current and the aborted epoch's files must be gone.
    failpoint::configure("epoch.swap", Action::IoError, Some(1));
    let receipt = {
        // Re-open as a live engine with a tiny budget: the recovery above
        // already spent nothing, so drop it and recover with the budget
        // that makes the next mutation kick the re-sketch.
        drop(recovered);
        let live = LiveEngine::recover(&dir, Some(1e-9)).unwrap();
        let receipt = live.apply_mutation(WalOp::RemoveEdge, u2, v2).unwrap();
        live.join_resketch();
        assert_eq!(live.epoch(), 0, "faulted swap must not advance the epoch");
        assert_eq!(live.resketches_total(), 0);
        assert_eq!(live.mutations_in_epoch(), 3, "delta survives the aborted commit");
        drop(live);
        receipt
    };
    assert!(receipt.resketch_kicked, "{receipt:?}");
    assert_eq!(failpoint::fired("epoch.swap"), 1);
    assert_eq!(reecc_serve::wal::read_current(&dir).unwrap(), Some(0), "CURRENT never flipped");
    assert!(!reecc_serve::wal::graph_path(&dir, 1).exists(), "aborted epoch files cleaned");
    assert!(!reecc_serve::wal::sketch_path(&dir, 1).exists());
    assert!(!reecc_serve::wal::wal_path(&dir, 1).exists());

    // And the directory still recovers: epoch 0 plus all three records.
    let after = LiveEngine::recover(&dir, Some(1e9)).unwrap();
    assert_eq!(after.wal_replayed_on_start(), 3);
    assert!(!after.view().engine.graph().has_edge(u2, v2), "removal survived the crash");
    failpoint::clear("wal.replay");
    failpoint::clear("epoch.swap");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario 5 (non-blocking epoch swap): drain the budget so a background
/// re-sketch kicks off, hold that build open with a delay failpoint, and
/// show that readers keep getting answers on the old epoch the whole time.
/// Once the build is released, the swap lands: epoch 1.
#[test]
fn epoch_swap_never_blocks_readers() {
    let _guard = chaos_lock();
    failpoint::clear("resketch.build");
    // Hold the background build open for longer than the reader phase.
    failpoint::configure("resketch.build", Action::Delay(1500), None);
    // A tiny budget: the very first mutation drains it and kicks the build.
    let pool = ServePool::with_live(
        LiveEngine::ephemeral(engine(), Some(1e-9)),
        PoolConfig { threads: 2, queue_depth: 64, ..Default::default() },
    );
    let live = Arc::clone(pool.live());
    let (u, v) = (0..N)
        .flat_map(|a| (a + 1..N).map(move |b| (a, b)))
        .find(|&(a, b)| !graph().has_edge(a, b))
        .unwrap();
    let receipt = live.apply_mutation(WalOp::AddEdge, u, v).unwrap();
    assert!(receipt.resketch_kicked, "{receipt:?}");
    assert!(live.resketch_running(), "the re-sketch must be in flight");
    assert_eq!(live.epoch(), 0);

    // Readers during the build: all answered, promptly, on the old epoch.
    let started = Instant::now();
    for i in 0..8u64 {
        let response = pool.run(ecc_request((i as usize * 7) % N, i));
        assert!(response.is_ok(), "reader blocked or failed: {}", response.render());
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(1000),
        "readers must not wait for the re-sketch: {elapsed:?}"
    );
    assert_eq!(live.epoch(), 0, "the swap must not have landed mid-build");

    failpoint::clear("resketch.build");
    live.join_resketch();
    assert_eq!(live.epoch(), 1, "released build must swap in the fresh epoch");
    assert_eq!(live.resketches_total(), 1);
    assert!(pool.live().view().engine.graph().has_edge(u, v), "mutation survives the swap");
}

/// The env-var grammar that the CLI smoke test uses must parse: one armed
/// site with a count, one delay site, separated by semicolons.
#[test]
fn failpoint_env_grammar_round_trips() {
    let parsed =
        failpoint::parse_spec("worker.compute=panic*1;snapshot.load=delay(5)").unwrap();
    assert_eq!(parsed.len(), 2);
    assert!(failpoint::parse_spec("nonsense without an equals").is_err());
    assert!(failpoint::parse_spec("site=unknown-action").is_err());
}

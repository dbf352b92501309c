//! End-to-end tests for the serving subsystem: snapshot persistence,
//! pipe-mode protocol sessions against ground truth, and pool
//! backpressure under a deliberately tiny queue.

use std::io::BufReader;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use reecc_core::{exact_query, ExactResistance, QueryEngine, SketchParams};
use reecc_graph::generators::barabasi_albert;
use reecc_graph::{fingerprint, Edge, Graph};
use reecc_serve::json::Json;
use reecc_serve::{
    serve_pipe, LiveConfig, LiveEngine, PoolConfig, Request, RequestEnvelope, ServePool,
    SketchSnapshot, SnapshotError, SubmitError, TcpServer,
};

const N: usize = 200;
const EPS: f64 = 0.3;

fn graph() -> &'static Graph {
    static GRAPH: OnceLock<Graph> = OnceLock::new();
    GRAPH.get_or_init(|| barabasi_albert(N, 2, 1234))
}

/// One engine shared by every test in this file: the sketch build is the
/// expensive part (`d ≈ 24 ln n / ε²` CG solves) and is identical for all.
fn engine() -> Arc<QueryEngine> {
    static ENGINE: OnceLock<Arc<QueryEngine>> = OnceLock::new();
    Arc::clone(ENGINE.get_or_init(|| {
        Arc::new(
            QueryEngine::build(
                graph(),
                &SketchParams { epsilon: EPS, seed: 99, ..Default::default() },
            )
            .expect("BA graph is connected"),
        )
    }))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reecc-serving-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn snapshot_roundtrip_serves_queries_without_rebuilding() {
    let engine = engine();
    let path = temp_path("roundtrip.sketch");
    let snap = SketchSnapshot::from_engine(&engine);
    snap.save(&path).unwrap();

    let restored = SketchSnapshot::load(&path).unwrap().into_engine(graph()).unwrap();
    // The restored engine is byte-identical in behavior: same sketch rows,
    // same hull, so identical answers — not merely within ε.
    for v in [0, 17, 99, N - 1] {
        let a = engine.eccentricity(v);
        let b = restored.eccentricity(v);
        assert_eq!((a.value, a.farthest), (b.value, b.farthest), "v = {v}");
    }
    // And the answers themselves respect the sketch guarantee.
    let exact = exact_query(graph(), &[0, 17]).unwrap();
    for (v, c) in exact {
        let got = restored.eccentricity(v).value;
        assert!((got - c).abs() <= EPS * c + 1e-9, "c({v}): {got} vs exact {c}");
    }
}

#[test]
fn corrupting_any_byte_is_a_checksum_error_not_garbage() {
    let bytes = SketchSnapshot::from_engine(&engine()).to_bytes();
    // Flip one byte in the middle of the row payload.
    let mut corrupted = bytes.clone();
    let mid = bytes.len() / 2;
    corrupted[mid] ^= 0x40;
    match SketchSnapshot::from_bytes(&corrupted) {
        Err(SnapshotError::ChecksumMismatch { stored, computed }) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected checksum mismatch, got {other:?}"),
    }
    // A snapshot for a *different* graph fails differently: fingerprints,
    // not checksums, so operators can tell corruption from wrong pairing.
    let other_graph = barabasi_albert(N, 2, 4321);
    let err =
        SketchSnapshot::from_bytes(&bytes).unwrap().into_engine(&other_graph).unwrap_err();
    assert!(
        matches!(err, SnapshotError::FingerprintMismatch { .. }),
        "wrong graph must be a fingerprint error, got {err:?}"
    );
}

fn render_request(i: usize) -> String {
    match i % 5 {
        0 => format!("{{\"op\":\"ecc\",\"v\":{},\"id\":{i}}}", (i * 13) % N),
        1 => format!(
            "{{\"op\":\"res\",\"u\":{},\"v\":{},\"id\":{i}}}",
            (i * 7) % N,
            (i * 11 + 1) % N
        ),
        2 => format!("{{\"op\":\"radius\",\"id\":{i}}}"),
        3 => format!("{{\"op\":\"diameter\",\"id\":{i}}}"),
        _ => format!("{{\"op\":\"stats\",\"id\":{i}}}"),
    }
}

#[test]
fn pipe_session_of_100_mixed_ops_matches_ground_truth() {
    let pool = ServePool::new(engine(), PoolConfig { threads: 4, ..Default::default() });
    let mut input = String::new();
    for i in 0..100 {
        // Skip the res self-pair the schedule would hit (u == v).
        let line = render_request(i);
        input.push_str(&line);
        input.push('\n');
    }
    let mut output = Vec::new();
    let stats = serve_pipe(&pool, BufReader::new(input.as_bytes()), &mut output).unwrap();
    assert_eq!(stats.requests, 100);
    assert_eq!(stats.errors, 0, "{}", String::from_utf8_lossy(&output));

    let exact = ExactResistance::new(graph()).unwrap();
    let exact_dist = exact.eccentricity_distribution();
    let (radius, diameter) = (exact_dist.radius(), exact_dist.diameter());
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 100, "one response line per request");
    for (i, line) in lines.iter().enumerate() {
        let json = Json::parse(line).unwrap_or_else(|e| panic!("line {i} not JSON: {e}"));
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        assert_eq!(json.get("id").and_then(Json::as_usize), Some(i), "{line}");
        let value = json.get("value").and_then(Json::as_f64);
        match i % 5 {
            0 => {
                let v = (i * 13) % N;
                let c = exact.eccentricity(v).0;
                let got = value.unwrap();
                assert!((got - c).abs() <= EPS * c + 1e-9, "c({v}): {got} vs {c}");
                let want = engine().sketch().eccentricity(v).0;
                assert_eq!(got.to_bits(), want.to_bits(), "{line}");
                assert_eq!(json.get("tier").and_then(Json::as_str), Some("approx"), "{line}");
            }
            1 => {
                let (u, v) = ((i * 7) % N, (i * 11 + 1) % N);
                let r = exact.resistance(u, v);
                let got = value.unwrap();
                assert!((got - r).abs() <= EPS * r + 1e-9, "r({u},{v}): {got} vs {r}");
            }
            2 => {
                let got = value.unwrap();
                assert!(
                    (got - radius).abs() <= EPS * radius + 1e-9,
                    "radius: {got} vs {radius}"
                );
            }
            3 => {
                let got = value.unwrap();
                assert!(
                    (got - diameter).abs() <= EPS * diameter + 1e-9,
                    "diameter: {got} vs {diameter}"
                );
            }
            _ => {
                assert_eq!(json.get("nodes").and_then(Json::as_usize), Some(N), "{line}");
            }
        }
    }
}

#[test]
fn depth_one_queue_rejects_instead_of_blocking() {
    let pool = ServePool::new(
        engine(),
        PoolConfig { threads: 1, queue_depth: 1, ..Default::default() },
    );
    // Occupy the single worker with the all-node radius sweep ...
    let busy = pool
        .submit(RequestEnvelope { id: None, deadline_ms: None, request: Request::Radius })
        .unwrap();
    // ... then flood. Submission must return immediately either way; with
    // the worker busy, at most one request fits the queue.
    let started = std::time::Instant::now();
    let mut overloaded = 0;
    let mut accepted = Vec::new();
    for v in 0..24 {
        match pool.submit(RequestEnvelope {
            id: None,
            deadline_ms: None,
            request: Request::Ecc { v },
        }) {
            Ok(rx) => accepted.push(rx),
            Err(SubmitError::Overloaded { depth }) => {
                assert_eq!(depth, 1);
                overloaded += 1;
            }
            Err(e) => panic!("{e:?}"),
        }
    }
    let elapsed = started.elapsed();
    assert!(overloaded >= 1, "a depth-1 queue under flood must shed load");
    assert!(
        elapsed < std::time::Duration::from_millis(250),
        "24 submissions must not block on the busy worker: took {elapsed:?}"
    );
    assert!(busy.recv().unwrap().is_ok());
    for rx in accepted {
        assert!(rx.recv().unwrap().is_ok(), "accepted requests still complete");
    }
}

#[test]
fn tcp_server_answers_concurrent_clients_consistently() {
    use std::io::{BufRead, Write};

    let pool =
        Arc::new(ServePool::new(engine(), PoolConfig { threads: 4, ..Default::default() }));
    let server = TcpServer::start(Arc::clone(&pool), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let expected = engine().eccentricity(7).value;

    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let stream = std::net::TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut stream = stream;
                let mut values = Vec::new();
                for _ in 0..8 {
                    writeln!(stream, "{{\"op\":\"ecc\",\"v\":7}}").unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    let json = Json::parse(&line).unwrap();
                    assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true), "{line}");
                    values.push(json.get("value").and_then(Json::as_f64).unwrap());
                }
                values
            })
        })
        .collect();
    for handle in handles {
        for value in handle.join().unwrap() {
            assert!(
                (value - expected).abs() < 1e-12,
                "every client must see the same cached answer: {value} vs {expected}"
            );
        }
    }
    assert!(pool.served() >= 32);
}

#[test]
fn stats_wire_reports_transport_counters() {
    use std::io::{BufRead, Write};
    use std::time::Duration;

    let pool =
        Arc::new(ServePool::new(engine(), PoolConfig { threads: 2, ..Default::default() }));
    let config = reecc_serve::ServerConfig {
        max_connections: 1,
        poll_interval: Duration::from_millis(5),
        ..Default::default()
    };
    let server = TcpServer::start_with(Arc::clone(&pool), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // One admitted session does a round trip (so bytes flow both ways) ...
    let stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, "{{\"op\":\"ecc\",\"v\":7,\"id\":0}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":true"), "{line}");

    // ... and a second connection is shed past the cap, bumping the
    // shed counter before its goodbye line is even delivered.
    let shed = std::net::TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut shed_reader = BufReader::new(shed);
    let mut shed_line = String::new();
    shed_reader.read_line(&mut shed_line).unwrap();
    assert!(shed_line.contains("\"error\":\"overloaded\""), "{shed_line}");

    // The transport block rides the same `stats` op as everything else.
    writeln!(writer, "{{\"op\":\"stats\",\"id\":1}}").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    let json = Json::parse(&line).unwrap();
    let counter = |k: &str| {
        json.get(k).and_then(Json::as_usize).unwrap_or_else(|| panic!("missing {k}: {line}"))
    };
    assert!(counter("connections_accepted") >= 2, "{line}");
    assert_eq!(counter("connections_active"), 1, "{line}");
    assert_eq!(counter("connections_shed"), 1, "{line}");
    assert_eq!(counter("connections_timed_out"), 0, "{line}");
    assert!(counter("bytes_read") > 0, "{line}");
    assert!(counter("bytes_written") > 0, "{line}");
    assert_eq!(counter("write_buffer_sheds"), 0, "{line}");

    // The in-process view agrees with the wire.
    let snap = server.stats().snapshot();
    assert_eq!(snap.connections_shed, 1);
    assert_eq!(server.live_sessions(), 1);
}

#[test]
fn expired_deadline_is_never_computed() {
    let pool = ServePool::new(
        engine(),
        PoolConfig { threads: 1, queue_depth: 8, ..Default::default() },
    );
    let busy = pool
        .submit(RequestEnvelope { id: None, deadline_ms: None, request: Request::Diameter })
        .unwrap();
    let dated = pool.run(RequestEnvelope {
        id: Some(1),
        deadline_ms: Some(0),
        request: Request::Ecc { v: 3 },
    });
    assert!(!dated.is_ok());
    assert!(dated.render().contains("deadline-exceeded"), "{}", dated.render());
    assert!(busy.recv().unwrap().is_ok());
}

/// First (u, v) pair that is not an edge of the shared test graph — a
/// mutation target that `add-edge` is guaranteed to accept.
fn absent_pair() -> (usize, usize) {
    let g = graph();
    (0..N)
        .flat_map(|a| (a + 1..N).map(move |b| (a, b)))
        .find(|&(a, b)| !g.has_edge(a, b))
        .expect("BA(200, 2) is sparse")
}

#[test]
fn stats_wire_reports_live_mutation_fields() {
    // A huge explicit budget keeps the session deterministic: no background
    // re-sketch can kick in and race the field assertions.
    let live = LiveEngine::ephemeral(engine(), Some(64.0));
    let pool = ServePool::with_live(live, PoolConfig { threads: 2, ..Default::default() });
    let (u, v) = absent_pair();
    let input = format!(
        "{{\"op\":\"stats\",\"id\":0}}\n\
         {{\"op\":\"add-edge\",\"u\":{u},\"v\":{v},\"id\":1}}\n\
         {{\"op\":\"stats\",\"id\":2}}\n\
         {{\"op\":\"epoch\",\"id\":3}}\n"
    );
    let mut output = Vec::new();
    let stats = serve_pipe(&pool, BufReader::new(input.as_bytes()), &mut output).unwrap();
    assert_eq!((stats.requests, stats.errors), (4, 0), "{}", String::from_utf8_lossy(&output));
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();

    // Pristine stats: epoch 0, nothing applied, full budget, no WAL.
    let field =
        |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or_else(|| panic!("{k}"));
    assert_eq!(field(&lines[0], "epoch"), 0.0);
    assert_eq!(field(&lines[0], "mutations_applied"), 0.0);
    assert_eq!(field(&lines[0], "error_budget_remaining"), 64.0);
    assert_eq!(field(&lines[0], "resketches_total"), 0.0);
    assert_eq!(field(&lines[0], "wal_bytes"), 0.0);
    assert_eq!(field(&lines[0], "wal_replayed_on_start"), 0.0);

    // The mutation ack carries the resistance, its budget charge, and seq 0.
    assert_eq!(lines[1].get("ok").and_then(Json::as_bool), Some(true), "{}", text);
    let r_uv = field(&lines[1], "r_uv");
    let cost = field(&lines[1], "cost");
    assert!(r_uv > 0.0 && cost > 0.0 && cost < 1.0, "add cost r/(1+r): r={r_uv} cost={cost}");
    assert!((cost - r_uv / (1.0 + r_uv)).abs() < 1e-12);
    assert_eq!(field(&lines[1], "seq"), 0.0);
    assert_eq!(lines[1].get("resketch").and_then(Json::as_bool), Some(false));

    // Post-mutation stats: counter bumped, budget charged, still epoch 0,
    // and wal_bytes stays 0 because this live engine is ephemeral.
    assert_eq!(field(&lines[2], "mutations_applied"), 1.0);
    assert!((field(&lines[2], "error_budget_remaining") - (64.0 - cost)).abs() < 1e-9);
    assert_eq!(field(&lines[2], "epoch"), 0.0);
    assert_eq!(field(&lines[2], "resketches_total"), 0.0);
    assert_eq!(field(&lines[2], "wal_bytes"), 0.0);

    // The epoch op agrees with stats.
    assert_eq!(field(&lines[3], "epoch"), 0.0);
    assert_eq!(field(&lines[3], "mutations_in_epoch"), 1.0);
    assert_eq!(field(&lines[3], "budget_total"), 64.0);
    assert_eq!(lines[3].get("resketch_running").and_then(Json::as_bool), Some(false));
}

#[test]
fn wal_backed_pipe_session_recovers_after_restart() {
    let dir = temp_path("wal-session");
    let _ = std::fs::remove_dir_all(&dir);
    let config = LiveConfig { wal_dir: Some(dir.clone()), error_budget: Some(64.0) };
    let (live, recovered) = LiveEngine::open(engine(), &config).unwrap();
    assert!(!recovered, "fresh dir must bootstrap, not recover");
    let pool = ServePool::with_live(live, PoolConfig { threads: 2, ..Default::default() });

    let g = graph();
    let mut absent = (0..N)
        .flat_map(|a| (a + 1..N).map(move |b| (a, b)))
        .filter(|&(a, b)| !g.has_edge(a, b));
    let (u1, v1) = absent.next().unwrap();
    let (u2, v2) = absent.next().unwrap();
    // Add two edges, then remove the first: the removal can never be a
    // disconnecting bridge (the base graph was already connected without
    // it), so every mutation in the session is accepted deterministically.
    let input = format!(
        "{{\"op\":\"add-edge\",\"u\":{u1},\"v\":{v1},\"id\":0}}\n\
         {{\"op\":\"add-edge\",\"u\":{u2},\"v\":{v2},\"id\":1}}\n\
         {{\"op\":\"remove-edge\",\"u\":{u1},\"v\":{v1},\"id\":2}}\n\
         {{\"op\":\"res\",\"u\":{u2},\"v\":{v2},\"id\":3}}\n\
         {{\"op\":\"stats\",\"id\":4}}\n"
    );
    let mut output = Vec::new();
    let stats = serve_pipe(&pool, BufReader::new(input.as_bytes()), &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    assert_eq!((stats.requests, stats.errors), (5, 0), "{text}");
    let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let served_res = lines[3].get("value").and_then(Json::as_f64).unwrap();
    // Three fsynced records on top of the 28-byte header.
    let expected_bytes =
        (reecc_serve::wal::HEADER_LEN + 3 * reecc_serve::wal::RECORD_LEN) as f64;
    assert_eq!(
        lines[4].get("wal_bytes").and_then(Json::as_f64),
        Some(expected_bytes),
        "{text}"
    );

    // Simulate a crash: drop the pool without any snapshot/rotation step,
    // then restart from the directory alone.
    drop(pool);
    let restarted = LiveEngine::recover(&dir, Some(64.0)).unwrap();
    assert_eq!(restarted.wal_replayed_on_start(), 3);
    let (u, v) = (u2, v2);
    let replayed = restarted.view().engine.resistance(u, v);
    assert_eq!(
        replayed.to_bits(),
        served_res.to_bits(),
        "replay must reproduce the served answer bitwise: {replayed} vs {served_res}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_replay_is_bitwise_whatever_solver_flags_each_side_ran_with() {
    // Durable mutations pin their CG config precisely so that a session
    // serving under `--precision mixed --precond cheby` and a recovery
    // under different (or default) flags replay to the same bits. Apply
    // mutations on a mixed+cheby engine live, then recover once with no
    // solver selection and once with the mixed+cheby selection: all
    // three states must agree bitwise.
    let dir = temp_path("wal-solver-flags");
    let _ = std::fs::remove_dir_all(&dir);
    let mut tuned = SketchParams { epsilon: EPS, seed: 99, ..Default::default() };
    tuned.precision = reecc_core::Precision::Mixed;
    tuned.cg.preconditioner =
        reecc_core::Preconditioner::Chebyshev(reecc_core::ChebyshevConfig::default());
    let built = Arc::new(QueryEngine::build(graph(), &tuned).expect("BA graph is connected"));
    let config = LiveConfig { wal_dir: Some(dir.clone()), error_budget: Some(64.0) };
    let (live, recovered) = LiveEngine::open(Arc::clone(&built), &config).unwrap();
    assert!(!recovered);

    let g = graph();
    let mut absent = (0..N)
        .flat_map(|a| (a + 1..N).map(move |b| (a, b)))
        .filter(|&(a, b)| !g.has_edge(a, b));
    let (u1, v1) = absent.next().unwrap();
    let (u2, v2) = absent.next().unwrap();
    live.apply_mutation(reecc_serve::wal::WalOp::AddEdge, u1, v1).unwrap();
    live.apply_mutation(reecc_serve::wal::WalOp::AddEdge, u2, v2).unwrap();
    live.apply_mutation(reecc_serve::wal::WalOp::RemoveEdge, u1, v1).unwrap();
    let served = live.view().engine.resistance(u2, v2);

    for solver in [None, Some(&tuned)] {
        let restarted = LiveEngine::recover_with_solver(&dir, Some(64.0), solver).unwrap();
        assert_eq!(restarted.wal_replayed_on_start(), 3);
        let replayed = restarted.view().engine.resistance(u2, v2);
        assert_eq!(
            replayed.to_bits(),
            served.to_bits(),
            "solver={:?}: replay must be flag-independent: {replayed} vs {served}",
            solver.is_some()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panel_rebuilds_on_epoch_swap_and_answers_identically() {
    // A drained error budget kicks the background re-sketch; the swapped
    // epoch publishes a *new* engine whose norm order must be taken from
    // the fresh embeddings. Its answers have to match a by-hand scan of
    // the same engine's sketch bitwise — a stale order (old epoch's
    // norms) would stop the scan early and diverge.
    let live = LiveEngine::ephemeral(engine(), Some(1e-9));
    let before = live.view();
    let (u, v) = absent_pair();
    let receipt = live.apply_mutation(reecc_serve::wal::WalOp::AddEdge, u, v).unwrap();
    assert!(receipt.resketch_kicked, "a 1e-9 budget must drain on the first mutation");
    live.join_resketch();
    let after = live.view();
    assert_eq!(live.epoch(), 1, "the re-sketch swapped in a new epoch");
    assert_ne!(after.fingerprint, before.fingerprint);
    for s in [0usize, 17, 99, N - 1] {
        let ans = after.engine.eccentricity(s);
        let (want_c, want_f) = after.engine.sketch().eccentricity(s);
        assert_eq!(
            (ans.value.to_bits(), ans.farthest),
            (want_c.to_bits(), want_f),
            "s={s}: swapped epoch scans in a stale order"
        );
        // And the swap genuinely changed the answer surface: the new
        // engine is not the old one with a relabeled order.
        let old = before.engine.eccentricity(s);
        assert!(ans.value.is_finite() && old.value.is_finite());
    }
}

#[test]
fn radius_and_diameter_are_the_brute_force_extremes_on_both_tiers() {
    use reecc_serve::protocol::Outcome;
    // `radius` / `diameter` fold every node's eccentricity from the
    // norm-pruned scan, on a fresh epoch and on a mutated one alike. Both
    // must be the min / max of the same engine's O(n·d)
    // `ResistanceSketch::eccentricity` scans — value bits and node.
    let fresh = LiveEngine::ephemeral(engine(), Some(64.0));
    let mutated = LiveEngine::ephemeral(engine(), Some(64.0));
    let (u, v) = absent_pair();
    mutated.apply_mutation(reecc_serve::wal::WalOp::AddEdge, u, v).unwrap();
    for (live, name) in [(fresh, "fresh"), (mutated, "mutated")] {
        let view = live.view();
        let (mut min, mut max) = ((f64::INFINITY, 0), (f64::NEG_INFINITY, 0));
        for s in 0..N {
            let c = view.engine.sketch().eccentricity(s).0;
            if c < min.0 {
                min = (c, s);
            }
            if c > max.0 {
                max = (c, s);
            }
        }
        let pool = ServePool::with_live(live, PoolConfig { threads: 2, ..Default::default() });
        for (request, want) in [(Request::Radius, min), (Request::Diameter, max)] {
            let resp = pool.run(RequestEnvelope { id: None, deadline_ms: None, request });
            assert_eq!(resp.tier, Some("approx"), "{name}: {request:?}");
            match resp.outcome {
                Outcome::Ecc { value, node } => assert_eq!(
                    (value.to_bits(), node),
                    (want.0.to_bits(), want.1),
                    "{name}: {request:?}"
                ),
                other => panic!("{name}: {request:?}: {other:?}"),
            }
        }
    }
}

#[test]
fn coalesced_requests_never_double_count_cache_hits() {
    use reecc_serve::protocol::Outcome;
    // Counter-drift guard for serve-side request coalescing: park the
    // single worker inside a reply closure, queue an eccentricity-family
    // mix with duplicates (plus the radius/diameter pair, which a single
    // flush answers from one shared sweep), release, and audit every
    // counter against first principles.
    let engine = engine();
    let pool = ServePool::new(
        Arc::clone(&engine),
        PoolConfig { threads: 1, queue_depth: 32, ..Default::default() },
    );
    let (gate_tx, gate_rx) = std::sync::mpsc::channel::<()>();
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    pool.submit_with(
        RequestEnvelope { id: None, deadline_ms: None, request: Request::Ecc { v: 5 } },
        Box::new(move |resp| {
            gate_rx.recv().expect("gate sender lives");
            let _ = first_tx.send(resp);
        }),
    )
    .unwrap();
    while pool.served() < 1 {
        std::thread::yield_now();
    }
    // 6 queued jobs, one flush (window 8): ecc {7, 7, 42, 5},
    // radius, diameter. Key space: Ecc{5} was cached by the parked
    // warm-up job BEFORE these lookups run, so it is the flush's only
    // hit; Ecc{7} is looked up twice before its single insert — two
    // misses sharing one computation, never a fabricated hit.
    let queued = [
        Request::Ecc { v: 7 },
        Request::Ecc { v: 7 },
        Request::Ecc { v: 42 },
        Request::Ecc { v: 5 },
        Request::Radius,
        Request::Diameter,
    ];
    let rxs: Vec<_> = queued
        .iter()
        .map(|r| {
            pool.submit(RequestEnvelope { id: None, deadline_ms: None, request: *r }).unwrap()
        })
        .collect();
    gate_tx.send(()).unwrap();
    assert!(first_rx.recv().unwrap().is_ok());
    let mut values = Vec::new();
    for (request, rx) in queued.iter().zip(rxs) {
        let resp = rx.recv().unwrap();
        assert!(resp.is_ok(), "{request:?}: {resp:?}");
        values.push(resp);
    }
    // Batched ecc answers are bitwise the O(n·d) sketch scan's.
    for (i, v) in [(0usize, 7usize), (1, 7), (2, 42), (3, 5)] {
        let want = engine.sketch().eccentricity(v);
        match values[i].outcome {
            Outcome::Ecc { value, node } => {
                assert_eq!((value.to_bits(), node), (want.0.to_bits(), want.1));
            }
            ref other => panic!("{other:?}"),
        }
    }
    assert!(values[3].cached, "Ecc{{5}} was cached by the warm-up job");
    // Radius <= diameter, both from the same flush's one shared sweep.
    match (&values[4].outcome, &values[5].outcome) {
        (Outcome::Ecc { value: r, .. }, Outcome::Ecc { value: d, .. }) => {
            assert!(r <= d, "radius {r} vs diameter {d}")
        }
        other => panic!("{other:?}"),
    }
    let stats =
        pool.run(RequestEnvelope { id: None, deadline_ms: None, request: Request::Stats });
    match stats.outcome {
        Outcome::Stats(s) => {
            // 7 cacheable requests → exactly 7 lookups, no drift: the
            // warm-up miss, then in the flush one hit (Ecc 5) and five
            // misses (7, 7, 42, radius, diameter).
            assert_eq!(s.cache_hits + s.cache_misses, 7, "{s:?}");
            assert_eq!(s.cache_hits, 1, "{s:?}");
            assert_eq!(s.batched_requests, 6, "{s:?}");
            assert_eq!(s.batch_flushes, 2, "warm-up solo + the flush: {s:?}");
            assert_eq!(s.batch_occupancy_sum, 7, "{s:?}");
        }
        other => panic!("{other:?}"),
    }
    let report = pool.drain(std::time::Duration::from_secs(10));
    assert_eq!(report.submitted, report.answered, "{report:?}");
    assert_eq!(report.panics, 0);
}

#[test]
fn whatif_edge_never_answers_above_the_plain_ecc() {
    use reecc_serve::protocol::Outcome;
    // Adding an edge never raises a resistance (Rayleigh monotonicity), so
    // `whatif-edge(s, a, b)` must not exceed `ecc(s)`: both read the same
    // sketch, and the rank-1 update only subtracts from every distance.
    // An `ecc` that maximizes over fewer nodes than the what-if does can
    // fall below it.
    let pool = ServePool::new(engine(), PoolConfig { threads: 2, ..Default::default() });
    let g = graph();
    let value = |request: Request| match pool
        .run(RequestEnvelope { id: None, deadline_ms: None, request })
        .outcome
    {
        Outcome::Ecc { value, .. } => value,
        other => panic!("{request:?}: {other:?}"),
    };
    let mut above = Vec::new();
    for s in (0..N).step_by(5) {
        let a = (7 * s + 3) % N;
        let b = (1..N)
            .map(|k| (a + k) % N)
            .find(|&b| !g.has_edge(a, b))
            .expect("BA(200, 2) is sparse");
        let plain = value(Request::Ecc { v: s });
        let after = value(Request::WhatIfEdge { s, u: a, v: b });
        if after > plain * (1.0 + 1e-9) {
            above.push(format!("s={s} +({a},{b}): {after} > {plain}"));
        }
    }
    assert!(above.is_empty(), "{} of {} what-ifs above ecc: {above:#?}", above.len(), N / 5);
}

#[test]
fn snapshot_fingerprint_is_representation_level() {
    // The snapshot key is fingerprint(graph): the same edge list loads,
    // a relabeled isomorph does not. This is by design — sketch rows are
    // indexed by node id, so an isomorph's ids would scramble answers.
    let g = graph();
    let clone =
        Graph::from_edges(g.node_count(), g.edges().iter().map(|e| (e.u, e.v))).unwrap();
    assert_eq!(fingerprint(g), fingerprint(&clone));
}

#[test]
fn pre_rework_golden_snapshot_still_loads_and_answers() {
    // Regression guard for the flat node-major sketch-storage rework: the
    // checked-in golden snapshot was produced by the PRE-rework code
    // (row-major `Vec<Vec<f64>>` storage, scalar per-row CG). It must keep
    // loading byte-for-byte, and — because the blocked kernels are bitwise
    // identical to the old scalar path — rebuilding with the same
    // parameters must reproduce the golden bytes exactly.
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/pre_flat_rework.sketch");
    let bytes = std::fs::read(&golden_path).expect("golden snapshot is checked in");
    let snap = SketchSnapshot::from_bytes(&bytes).expect("golden snapshot parses");

    // Generation recipe (recorded so the golden file can be regenerated):
    let g = barabasi_albert(40, 2, 9);
    let params =
        SketchParams { epsilon: 0.4, max_dimension: Some(64), seed: 3, ..Default::default() };
    let engine = snap.into_engine(&g).expect("golden snapshot pairs with its graph");

    // Loaded engine answers within the sketch guarantee against exact.
    let nodes: Vec<usize> = (0..g.node_count()).step_by(7).collect();
    let exact = exact_query(&g, &nodes).unwrap();
    for (v, c) in exact {
        let got = engine.eccentricity(v).value;
        assert!((got - c).abs() <= 0.4 * c + 1e-9, "c({v}): {got} vs exact {c}");
    }

    // Bitwise build-compatibility: today's blocked build serializes to the
    // exact bytes the pre-rework scalar build wrote.
    let rebuilt = QueryEngine::build(&g, &params).unwrap();
    let rebuilt_bytes = SketchSnapshot::from_engine(&rebuilt).to_bytes();
    assert_eq!(rebuilt_bytes, bytes, "snapshot byte format or sketch bits drifted");
}

#[test]
fn mutated_epoch_golden_snapshot_is_bitwise_stable() {
    // Regression guard for the write path: the checked-in golden snapshot
    // was written by the in-place rank-1 update (clone the sketch, update
    // the clone, recompute every norm). A mutated epoch's sketch, graph
    // fingerprint and hull must keep serializing to exactly those bytes,
    // which is what WAL replay on a recovered server relies on.
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/mutated_epoch.sketch");
    let golden = std::fs::read(&golden_path).expect("golden snapshot is checked in");

    // Generation recipe (recorded so the golden file can be regenerated):
    // the `pre_flat_rework.sketch` build, then add (0, 39) with q-seed 11,
    // remove the non-bridge (5, 33), and add (12, 27) with q-seed 13.
    let g = barabasi_albert(40, 2, 9);
    let params =
        SketchParams { epsilon: 0.4, max_dimension: Some(64), seed: 3, ..Default::default() };
    let base = QueryEngine::build(&g, &params).unwrap();
    let (added, _) = base.with_added_edge(Edge::new(0, 39), 11).unwrap();
    let (removed, _) = added.with_removed_edge(Edge::new(5, 33)).unwrap();
    let (engine, _) = removed.with_added_edge(Edge::new(12, 27), 13).unwrap();
    let bytes = SketchSnapshot::from_engine(&engine).to_bytes();
    assert_eq!(bytes, golden, "mutated-epoch sketch bits or graph drifted");

    // The norms the write path hands over must drive the pruned scan to
    // the full scan's exact answer on every node.
    for v in 0..engine.graph().node_count() {
        let scan = engine.eccentricity(v);
        let (value, farthest) = engine.sketch().eccentricity(v);
        assert_eq!((scan.value.to_bits(), scan.farthest), (value.to_bits(), farthest), "v={v}");
    }
}

#[test]
fn snapshot_format_is_precision_agnostic() {
    // The v1 snapshot stores f64 rows regardless of the arithmetic that
    // produced them: a mixed-precision build serializes in the exact same
    // format (same header prefix as an f64-built snapshot of the same
    // sketch shape), round-trips byte-for-byte, and is byte-identical no
    // matter which threads × block_size combination built it.
    let g = barabasi_albert(40, 2, 9);
    let f64_params =
        SketchParams { epsilon: 0.4, max_dimension: Some(64), seed: 3, ..Default::default() };
    let mut mixed_params = f64_params;
    mixed_params.precision = reecc_core::Precision::Mixed;
    mixed_params.cg.preconditioner =
        reecc_core::Preconditioner::Chebyshev(reecc_core::ChebyshevConfig::default());

    let f64_bytes =
        SketchSnapshot::from_engine(&QueryEngine::build(&g, &f64_params).unwrap()).to_bytes();
    let mixed_engine = QueryEngine::build(&g, &mixed_params).unwrap();
    let mixed_bytes = SketchSnapshot::from_engine(&mixed_engine).to_bytes();

    // Same container: identical length and identical leading header (the
    // first bytes before sketch data diverges numerically). 16 bytes
    // covers magic + version + shape fields without tying the test to the
    // exact layout.
    assert_eq!(mixed_bytes.len(), f64_bytes.len(), "precision changed the v1 layout");
    assert_eq!(&mixed_bytes[..16], &f64_bytes[..16], "precision leaked into the header");

    // Round trip: load → re-serialize reproduces the bytes exactly, and
    // the loaded engine answers like the in-memory one.
    let snap = SketchSnapshot::from_bytes(&mixed_bytes).expect("mixed snapshot parses");
    let loaded = snap.into_engine(&g).expect("mixed snapshot pairs with its graph");
    assert_eq!(
        SketchSnapshot::from_engine(&loaded).to_bytes(),
        mixed_bytes,
        "mixed snapshot does not round-trip byte-for-byte"
    );
    for v in (0..g.node_count()).step_by(7) {
        assert_eq!(
            loaded.eccentricity(v).value.to_bits(),
            mixed_engine.eccentricity(v).value.to_bits()
        );
    }

    // Build determinism carries into the serialized artifact.
    for (threads, block_size) in [(4usize, 0usize), (2, 4), (1, 8)] {
        let combo = SketchParams { threads, block_size, ..mixed_params };
        let rebuilt = QueryEngine::build(&g, &combo).unwrap();
        assert_eq!(
            SketchSnapshot::from_engine(&rebuilt).to_bytes(),
            mixed_bytes,
            "mixed snapshot differs at threads={threads} block_size={block_size}"
        );
    }
}

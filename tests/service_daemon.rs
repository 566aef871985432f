//! End-to-end daemon contracts over a real Unix socket: cold and cached
//! responses byte-identical to direct scheduling, documented error codes
//! for every failure, admission control, degradation flagging, and the
//! clean-shutdown drain.

use std::sync::Arc;
use std::time::Duration;

use ftbar::model::{paper_example, spec};
use ftbar::service::client::{request, Client, RequestOpts};
use ftbar::service::proto::ScheduleRequest;
use ftbar::service::server::{
    direct_response, serve_with_state, Listener, ServerConfig, ServerState,
};
use ftbar::service::SchedulerKind;
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};

fn paper_spec() -> String {
    spec::print_problem(&paper_example())
}

fn big_spec(n_ops: usize, seed: u64) -> String {
    let alg = layered(&LayeredConfig {
        n_ops,
        seed,
        ..Default::default()
    });
    let problem = timing(
        alg,
        arch::fully_connected(4),
        &TimingConfig {
            ccr: 1.0,
            npf: 1,
            seed,
            ..Default::default()
        },
    )
    .expect("valid problem");
    spec::print_problem(&problem)
}

fn socket_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ftbar-daemon-{tag}-{}.sock", std::process::id()))
}

fn opts() -> RequestOpts {
    RequestOpts {
        attempts: 6,
        base_backoff: Duration::from_millis(10),
        overall_deadline: Duration::from_secs(30),
        io_timeout: Duration::from_secs(10),
    }
}

fn schedule_line(spec: &str, extra: &str) -> String {
    format!(
        "{{\"spec\": {}{}}}",
        serde_json::to_string(&spec.to_owned()).unwrap(),
        extra
    )
}

/// Starts a daemon; returns (listener, state, join handle).
fn start(
    tag: &str,
    config: ServerConfig,
) -> (
    Listener,
    Arc<ServerState>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let listener = Listener::Unix(socket_path(tag));
    let state = ServerState::new(config);
    let l = listener.clone();
    let s = Arc::clone(&state);
    let handle = std::thread::spawn(move || serve_with_state(&l, &s));
    // Wait until the socket answers.
    request(&listener, "{\"op\": \"status\"}", &opts()).expect("daemon comes up");
    (listener, state, handle)
}

fn shutdown(listener: &Listener, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let resp = request(listener, "{\"op\": \"shutdown\"}", &opts()).expect("shutdown answers");
    assert!(resp.contains("\"op\": \"shutdown\""), "{resp}");
    handle
        .join()
        .expect("serve thread lives")
        .expect("serve drains cleanly");
}

#[test]
fn cold_and_cached_responses_match_direct_scheduling() {
    let (listener, state, handle) = start("cold-hit", ServerConfig::default());
    let spec_text = paper_spec();
    let req = ScheduleRequest {
        id: Some("r1".into()),
        spec: spec_text.clone(),
        scheduler: SchedulerKind::Ftbar,
        npf: None,
        strategy: None,
        timeout_ms: None,
        include_schedule: true,
    };
    let expected = direct_response(&req);
    let line = schedule_line(&spec_text, ", \"id\": \"r1\", \"include_schedule\": true");

    let cold = request(&listener, &line, &opts()).unwrap();
    assert_eq!(cold, expected, "cold response must equal direct scheduling");
    let hits_before = state.cache_stats().hits;
    let warm = request(&listener, &line, &opts()).unwrap();
    assert_eq!(warm, cold, "cache-hit response must be byte-identical");
    assert!(
        state.cache_stats().hits > hits_before,
        "second request must be served from cache"
    );

    // Same problem, different id: shares the cached body, new id.
    let line2 = schedule_line(&spec_text, ", \"id\": \"r2\", \"include_schedule\": true");
    let other = request(&listener, &line2, &opts()).unwrap();
    assert_eq!(other.replace("\"r2\"", "\"r1\""), cold);

    // Status reflects the traffic.
    let status = request(&listener, "{\"op\": \"status\"}", &opts()).unwrap();
    assert!(status.contains("\"op\": \"status\""), "{status}");
    assert!(status.contains("\"uptime_ms\""), "{status}");
    assert!(status.contains("\"cache\""), "{status}");
    shutdown(&listener, handle);
}

#[test]
fn malformed_oversized_and_poisoned_requests_map_to_codes() {
    let config = ServerConfig {
        max_frame_bytes: 4 * 1024,
        panic_marker: Some("__test_panic__".into()),
        ..ServerConfig::default()
    };
    let (listener, _state, handle) = start("codes", config);

    let bad = request(&listener, "this is not json", &opts()).unwrap();
    assert!(bad.contains("\"code\": \"bad_request\""), "{bad}");

    let missing = request(&listener, "{\"op\": \"schedule\"}", &opts()).unwrap();
    assert!(missing.contains("\"code\": \"bad_request\""), "{missing}");

    let spec_err = request(&listener, "{\"spec\": \"algorithm oops {\"}", &opts()).unwrap();
    assert!(spec_err.contains("\"code\": \"spec_error\""), "{spec_err}");

    let big = schedule_line(&format!("algorithm a {}", "x".repeat(8 * 1024)), "");
    let too_large = request(&listener, &big, &opts()).unwrap();
    assert!(too_large.contains("\"code\": \"too_large\""), "{too_large}");

    // A panicking job answers internal_panic, then poisons its raw key.
    let line = "{\"spec\": \"__test_panic__ now\"}";
    let first = request(&listener, line, &opts()).unwrap();
    assert!(first.contains("\"code\": \"internal_panic\""), "{first}");
    let second = request(&listener, line, &opts()).unwrap();
    assert!(second.contains("\"code\": \"poisoned\""), "{second}");

    // The daemon is still healthy.
    let ok = request(&listener, &schedule_line(&paper_spec(), ""), &opts()).unwrap();
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    shutdown(&listener, handle);
}

#[test]
fn per_request_deadline_times_out_instead_of_hanging() {
    let (listener, _state, handle) = start("deadline", ServerConfig::default());
    // A large problem with a 1 ms deadline: the response must be a
    // `timeout` error, delivered promptly — never a hung connection.
    let line = schedule_line(&big_spec(400, 7), ", \"timeout_ms\": 1");
    let started = std::time::Instant::now();
    let resp = request(&listener, &line, &opts()).unwrap();
    assert!(resp.contains("\"code\": \"timeout\""), "{resp}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout response must arrive promptly"
    );
    // The daemon keeps serving afterwards.
    let ok = request(&listener, &schedule_line(&paper_spec(), ""), &opts()).unwrap();
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    shutdown(&listener, handle);
}

#[test]
fn admission_control_rejects_or_sheds_on_a_full_queue() {
    // No workers: jobs stay queued, so admission control is
    // deterministic. Drive the frame core directly.
    let state = ServerState::new(ServerConfig {
        queue_depth: 1,
        shed_oldest: false,
        ..ServerConfig::default()
    });
    let line = schedule_line(&paper_spec(), ", \"timeout_ms\": 300");
    let s2 = Arc::clone(&state);
    let l2 = line.clone();
    let first = std::thread::spawn(move || s2.handle_frame(&l2));
    // Give the first frame time to enqueue, then overflow the queue.
    std::thread::sleep(Duration::from_millis(100));
    let second = state.handle_frame(&line);
    assert!(
        second.response().contains("\"code\": \"overloaded\""),
        "reject-new must answer overloaded: {}",
        second.response()
    );
    let first = first.join().unwrap();
    assert!(
        first.response().contains("\"code\": \"timeout\""),
        "queued-but-never-run job times out: {}",
        first.response()
    );

    // Shed-oldest: the newer request evicts the older one, which is
    // answered `overloaded` immediately.
    let state = ServerState::new(ServerConfig {
        queue_depth: 1,
        shed_oldest: true,
        ..ServerConfig::default()
    });
    let s2 = Arc::clone(&state);
    let l2 = schedule_line(&paper_spec(), ", \"timeout_ms\": 5000");
    let first = std::thread::spawn(move || s2.handle_frame(&l2));
    std::thread::sleep(Duration::from_millis(100));
    let started = std::time::Instant::now();
    let s3 = Arc::clone(&state);
    let l3 = schedule_line(&paper_spec(), ", \"timeout_ms\": 300");
    let second = std::thread::spawn(move || s3.handle_frame(&l3));
    let first = first.join().unwrap();
    assert!(
        first.response().contains("\"code\": \"overloaded\""),
        "shed-oldest must answer the old request overloaded: {}",
        first.response()
    );
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "the shed response must not wait for the old deadline"
    );
    let _ = second.join().unwrap();
}

#[test]
fn deadline_pressure_degrades_large_jobs_and_never_caches_them() {
    // degrade_queue_depth 0 makes every eligible job "pressured", so the
    // degradation path is deterministic.
    let config = ServerConfig {
        degrade_min_ops: 50,
        degrade_queue_depth: 0,
        ..ServerConfig::default()
    };
    let (listener, state, handle) = start("degrade", config);
    let line = schedule_line(&big_spec(80, 3), "");
    let resp = request(&listener, &line, &opts()).unwrap();
    assert!(resp.contains("\"degraded\": true"), "{resp}");
    assert!(resp.contains("\"status\": \"ok\""), "{resp}");
    assert_eq!(
        state.cache_stats().insertions,
        0,
        "degraded responses must never be cached"
    );
    // Small problems are never degraded.
    let small = request(&listener, &schedule_line(&paper_spec(), ""), &opts()).unwrap();
    assert!(!small.contains("degraded"), "{small}");
    shutdown(&listener, handle);
}

#[test]
fn pipelined_client_and_tcp_listener_work() {
    let (listener, _state, handle) = start("pipeline", ServerConfig::default());
    let spec_text = paper_spec();
    let line = schedule_line(&spec_text, "");
    let mut client = Client::connect(&listener).unwrap();
    for _ in 0..4 {
        client.write_line(&line).unwrap();
    }
    let mut responses = Vec::new();
    for _ in 0..4 {
        responses.push(client.read_line().unwrap());
    }
    assert!(responses.windows(2).all(|w| w[0] == w[1]));
    shutdown(&listener, handle);

    // The same protocol over TCP.
    let listener = Listener::Tcp("127.0.0.1:47139".into());
    let state = ServerState::new(ServerConfig::default());
    let l = listener.clone();
    let s = Arc::clone(&state);
    let handle = std::thread::spawn(move || serve_with_state(&l, &s));
    request(&listener, "{\"op\": \"status\"}", &opts()).expect("tcp daemon comes up");
    let resp = request(&listener, &line, &opts()).unwrap();
    assert!(resp.contains("\"status\": \"ok\""), "{resp}");
    shutdown(&listener, handle);
}

#[test]
fn reschedule_round_trip_matches_cold_schedule_of_edited_spec() {
    use ftbar::service::proto::parse_edit_json;

    let (listener, state, handle) = start("resched", ServerConfig::default());
    let spec_text = paper_spec();

    // Warm the daemon: scheduling the parent retains its engine artifacts.
    let parent = request(
        &listener,
        &schedule_line(&spec_text, ", \"include_schedule\": true"),
        &opts(),
    )
    .unwrap();
    assert!(parent.contains("\"status\": \"ok\""), "{parent}");

    // Repair the parent with a timing tweak.
    let edit = "{\"kind\": \"tweak_exec\", \"op\": \"I\", \"proc\": \"P1\", \"units\": 4}";
    let line = format!(
        "{{\"op\": \"reschedule\", \"id\": \"e1\", \"include_schedule\": true, \
         \"spec\": {}, \"edit\": {}}}",
        serde_json::to_string(&spec_text).unwrap(),
        edit
    );
    let repaired = request(&listener, &line, &opts()).unwrap();
    assert!(repaired.contains("\"status\": \"ok\""), "{repaired}");

    // The contract the CI smoke test `cmp`s: the repair answer is
    // byte-identical to a cold schedule of the edited spec.
    let problem = spec::parse_problem(&spec_text).unwrap();
    let edited = parse_edit_json(edit).unwrap().apply(&problem).unwrap();
    let cold = direct_response(&ScheduleRequest {
        id: Some("e1".into()),
        spec: spec::print_problem(&edited),
        scheduler: SchedulerKind::Ftbar,
        npf: None,
        strategy: None,
        timeout_ms: None,
        include_schedule: true,
    });
    assert_eq!(
        repaired, cold,
        "repair must match a cold schedule of the edited spec"
    );

    // A structural edit still answers correctly, via the full-run fallback.
    let structural = format!(
        "{{\"op\": \"reschedule\", \"spec\": {}, \
         \"edit\": {{\"kind\": \"set_npf\", \"npf\": 0}}}}",
        serde_json::to_string(&spec_text).unwrap()
    );
    let fell_back = request(&listener, &structural, &opts()).unwrap();
    assert!(fell_back.contains("\"status\": \"ok\""), "{fell_back}");

    // A well-formed edit that does not apply answers `bad_edit`.
    let bad = format!(
        "{{\"op\": \"reschedule\", \"spec\": {}, \
         \"edit\": {{\"kind\": \"tweak_exec\", \"op\": \"Zz\", \"proc\": \"P1\", \"units\": 1}}}}",
        serde_json::to_string(&spec_text).unwrap()
    );
    let rejected = request(&listener, &bad, &opts()).unwrap();
    assert!(rejected.contains("\"code\": \"bad_edit\""), "{rejected}");

    // A malformed edit object never reaches the scheduler: `bad_request`.
    let malformed = format!(
        "{{\"op\": \"reschedule\", \"spec\": {}, \"edit\": {{\"kind\": \"warp\"}}}}",
        serde_json::to_string(&spec_text).unwrap()
    );
    let refused = request(&listener, &malformed, &opts()).unwrap();
    assert!(refused.contains("\"code\": \"bad_request\""), "{refused}");

    // Status round-trips the repair/fallback counters and the store size.
    let status = request(&listener, "{\"op\": \"status\"}", &opts()).unwrap();
    assert!(
        status.contains("\"reschedule\": {\"repairs\": 1, \"fallbacks\": 1, \"artifacts\": "),
        "{status}"
    );
    drop(state);
    shutdown(&listener, handle);
}

#[test]
fn shutdown_drains_and_new_work_is_refused_while_draining() {
    let (_listener, state, handle) = start("drain", ServerConfig::default());
    state.begin_shutdown();
    // New schedule work is refused while draining.
    let refused = state.handle_frame(&schedule_line(&paper_spec(), ""));
    assert!(
        refused.response().contains("\"code\": \"shutting_down\""),
        "{}",
        refused.response()
    );
    handle
        .join()
        .expect("serve thread lives")
        .expect("drain returns Ok");
}

/// The `requests` counters of a `status` reply, by name.
fn request_counters(state: &ServerState) -> Vec<(String, u64)> {
    let status = state.handle_frame(r#"{"op": "status"}"#);
    let v: serde::Value = serde_json::from_str(status.response()).expect("status is JSON");
    let requests = v.get("requests").and_then(serde::Value::as_object);
    requests
        .expect("status reports requests")
        .iter()
        .map(|(name, n)| match n {
            serde::Value::Number(n) => (name.clone(), n.as_f64() as u64),
            other => panic!("counter `{name}` is {other:?}"),
        })
        .collect()
}

/// The counter ledger: every non-status frame lands in exactly one of
/// `ok` and the error codes; `degraded` is a subset of `ok` and `shed` of
/// `overloaded`. Returns the counters for case-specific checks.
fn assert_ledger(state: &ServerState, frames: u64) -> Vec<(String, u64)> {
    let counters = request_counters(state);
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(|| panic!("no counter `{name}`"), |&(_, v)| v)
    };
    let errors: u64 = counters
        .iter()
        .filter(|(n, _)| !matches!(n.as_str(), "ok" | "degraded" | "shed"))
        .map(|&(_, v)| v)
        .sum();
    assert_eq!(frames, get("ok") + errors, "{counters:?}");
    assert!(get("degraded") <= get("ok"), "{counters:?}");
    assert!(get("shed") <= get("overloaded"), "{counters:?}");
    counters
}

fn wait_for_queue_depth(state: &ServerState, depth: &str) {
    let want = format!("\"queue_depth\": {depth},");
    for _ in 0..500 {
        if state
            .handle_frame(r#"{"op": "status"}"#)
            .response()
            .contains(&want)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("queue never reached depth {depth}");
}

/// A job that timed out while queued, with no worker free, frees its slot
/// on a full reject-new queue: the next request is queued (and here times
/// out too), not answered `overloaded`; once a worker runs, requests are
/// answered.
#[test]
fn timed_out_queued_job_does_not_block_the_next_request() {
    let state = ServerState::new(ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let paper = paper_spec();
    let short = schedule_line(&paper, ", \"timeout_ms\": 50");
    for _ in 0..2 {
        let frame = state.handle_frame(&short);
        assert!(
            frame.response().contains("\"code\": \"timeout\""),
            "{}",
            frame.response()
        );
    }
    let workers = state.spawn_workers();
    let frame = state.handle_frame(&schedule_line(&paper, ""));
    assert!(
        frame.response().contains("\"makespan\""),
        "{}",
        frame.response()
    );
    let counters = assert_ledger(&state, 3);
    for (name, want) in [("ok", 1), ("timeout", 2), ("overloaded", 0)] {
        assert!(counters.contains(&(name.into(), want)), "{counters:?}");
    }
    state.begin_shutdown();
    for w in workers {
        w.join().expect("worker exits cleanly");
    }
}

/// Reject, shed, degrade, hit and bad frames, driven through the frame
/// core, keep the `status` counters reconciled.
#[test]
fn status_counters_reconcile_every_outcome() {
    // Reject-new with no workers yet: a live queued job fills the queue,
    // so the next request is rejected; the queued job then times out, and
    // the request after it takes the dead job's slot (and times out too).
    let state = ServerState::new(ServerConfig {
        workers: 1,
        queue_depth: 1,
        degrade_min_ops: 1,
        degrade_queue_depth: 0,
        ..ServerConfig::default()
    });
    let paper = paper_spec();
    let mut frames = Vec::new();
    let s2 = Arc::clone(&state);
    let line = schedule_line(&paper, ", \"timeout_ms\": 2000");
    let waiting = std::thread::spawn(move || s2.handle_frame(&line));
    wait_for_queue_depth(&state, "1");
    frames.push(state.handle_frame(&schedule_line(&paper, "")));
    frames.push(waiting.join().unwrap());
    frames.push(state.handle_frame(&schedule_line(&paper, ", \"timeout_ms\": 50")));
    let workers = state.spawn_workers();
    // The worker drops the timed-out job unanswered.
    wait_for_queue_depth(&state, "0");
    // Every eligible job degrades; an explicit strategy never does, so
    // it is cached and hits.
    frames.push(state.handle_frame(&schedule_line(&paper, "")));
    let exact = schedule_line(&paper, ", \"strategy\": \"naive\"");
    frames.push(state.handle_frame(&exact));
    frames.push(state.handle_frame(&exact));
    frames.push(state.handle_frame("not json"));
    frames.push(state.handle_frame(r#"{"spec": "nope"}"#));
    let codes: Vec<&str> = frames
        .iter()
        .map(|f| {
            let r = f.response();
            ["timeout", "overloaded", "bad_request", "spec_error"]
                .into_iter()
                .find(|c| r.contains(&format!("\"code\": \"{c}\"")))
                .unwrap_or(if r.contains("\"degraded\": true") {
                    "degraded"
                } else {
                    "ok"
                })
        })
        .collect();
    assert_eq!(
        codes,
        [
            "overloaded",
            "timeout",
            "timeout",
            "degraded",
            "ok",
            "ok",
            "bad_request",
            "spec_error"
        ]
    );
    assert_eq!(state.cache_stats().hits, 1);
    let counters = assert_ledger(&state, frames.len() as u64);
    assert!(counters.contains(&("degraded".into(), 1)), "{counters:?}");
    state.begin_shutdown();
    for w in workers {
        w.join().expect("worker exits cleanly");
    }

    // Shed-oldest with no workers: a waiting request is shed (and
    // answered overloaded); a request that already timed out is shed
    // too, but its caller was answered `timeout`, so it is not counted
    // as shed.
    let state = ServerState::new(ServerConfig {
        queue_depth: 1,
        shed_oldest: true,
        ..ServerConfig::default()
    });
    let s2 = Arc::clone(&state);
    let waiting = schedule_line(&paper, ", \"timeout_ms\": 5000");
    let first = std::thread::spawn(move || s2.handle_frame(&waiting));
    wait_for_queue_depth(&state, "1");
    let second = state.handle_frame(&schedule_line(&paper, ", \"timeout_ms\": 50"));
    let first = first.join().unwrap();
    assert!(first.response().contains("\"code\": \"overloaded\""));
    assert!(second.response().contains("\"code\": \"timeout\""));
    let third = state.handle_frame(&schedule_line(&paper, ", \"timeout_ms\": 50"));
    assert!(third.response().contains("\"code\": \"timeout\""));
    let counters = assert_ledger(&state, 3);
    assert!(counters.contains(&("shed".into(), 1)), "{counters:?}");
}

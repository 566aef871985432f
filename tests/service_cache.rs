//! Cache-correctness properties for the scheduling daemon (satellite of
//! the hardened-service PR):
//!
//! 1. canonical keys are invariant under spec statement re-ordering,
//! 2. distinct `npf` / strategy / scheduler / response shapes never
//!    collide, and
//! 3. under a tiny byte budget, hit-path responses stay byte-identical to
//!    cold-path scheduling while evictions churn the cache.

use std::collections::HashSet;

use ftbar::model::{spec, Problem};
use ftbar::service::cache::canonical_key;
use ftbar::service::proto::{parse_request, Request};
use ftbar::service::server::{direct_response, ServerConfig, ServerState};
use ftbar::service::SchedulerKind;
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_problem(n_ops: usize, seed: u64) -> Problem {
    let alg = layered(&LayeredConfig {
        n_ops,
        seed,
        ..Default::default()
    });
    timing(
        alg,
        arch::fully_connected(3),
        &TimingConfig {
            npf: 1,
            seed,
            ..Default::default()
        },
    )
    .expect("generated problems are valid")
}

/// Re-orders the declaration statements of a printed spec without changing
/// its meaning: ops, deps, procs, links, and the exec/comm table rows are
/// each permuted among themselves (deps must still follow ops, and links
/// procs, because the grammar resolves names against prior declarations).
fn shuffle_spec(text: &str, rng: &mut StdRng) -> String {
    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Group {
        Op,
        Dep,
        Proc,
        Link,
        ExecRow,
        CommRow,
    }
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let mut section = "";
    let mut groups: Vec<(Group, Vec<usize>)> = Vec::new();
    let push = |groups: &mut Vec<(Group, Vec<usize>)>, g: Group, i: usize| match groups
        .iter_mut()
        .find(|(k, _)| *k == g)
    {
        Some((_, v)) => v.push(i),
        None => groups.push((g, vec![i])),
    };
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        if t.starts_with("algorithm ") {
            section = "alg";
        } else if t.starts_with("architecture ") {
            section = "arch";
        } else if t.starts_with("exec {") {
            section = "exec";
        } else if t.starts_with("comm {") {
            section = "comm";
        } else if t.starts_with('}') {
            section = "";
        } else if section == "alg" && t.starts_with("op ") {
            push(&mut groups, Group::Op, i);
        } else if section == "alg" && t.starts_with("dep ") {
            push(&mut groups, Group::Dep, i);
        } else if section == "arch" && t.starts_with("proc ") {
            push(&mut groups, Group::Proc, i);
        } else if section == "arch" && t.starts_with("link ") {
            push(&mut groups, Group::Link, i);
        } else if section == "exec" && !t.is_empty() {
            push(&mut groups, Group::ExecRow, i);
        } else if section == "comm" && !t.is_empty() {
            push(&mut groups, Group::CommRow, i);
        }
    }
    for (_, positions) in groups {
        // Fisher–Yates over the *contents* of the group's line slots.
        let mut contents: Vec<String> = positions.iter().map(|&i| lines[i].clone()).collect();
        for i in (1..contents.len()).rev() {
            contents.swap(i, rng.gen_range(0usize..=i));
        }
        for (slot, content) in positions.into_iter().zip(contents) {
            lines[slot] = content;
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any re-ordering of the declarations in a spec text maps to the same
    /// canonical key — the property that lets textually different requests
    /// share one cache slot.
    #[test]
    fn canonical_key_invariant_under_reordering(
        n_ops in 5usize..24,
        seed in 0u64..1_000,
        shuffle_seed in 0u64..1_000,
    ) {
        let problem = random_problem(n_ops, seed);
        let text = spec::print_problem(&problem);
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let shuffled = shuffle_spec(&text, &mut rng);
        let reparsed = spec::parse_problem(&shuffled)
            .expect("shuffling declarations preserves validity");
        prop_assert_eq!(
            canonical_key(&problem, SchedulerKind::Ftbar, "adaptive", false),
            canonical_key(&reparsed, SchedulerKind::Ftbar, "adaptive", false)
        );
    }

    /// Every response-shaping parameter is part of the key: across npf,
    /// strategy, scheduler, and include_schedule, all keys are distinct,
    /// and two independently generated problems never share a key.
    #[test]
    fn distinct_parameters_never_collide(n_ops in 5usize..20, seed in 0u64..500) {
        let problem = random_problem(n_ops, seed);
        let mut keys = HashSet::new();
        for npf in 0u32..3 {
            let p = problem.with_npf(npf).expect("npf below proc count");
            for strategy in ["adaptive", "incremental", "naive", "clustered"] {
                for include in [false, true] {
                    prop_assert!(
                        keys.insert(canonical_key(&p, SchedulerKind::Ftbar, strategy, include)),
                        "collision at npf={} strategy={} include={}",
                        npf, strategy, include
                    );
                }
            }
            prop_assert!(keys.insert(canonical_key(&p, SchedulerKind::Hbp, "adaptive", false)));
        }
        let other = random_problem(n_ops, seed + 1_017);
        prop_assert!(
            keys.insert(canonical_key(&other, SchedulerKind::Ftbar, "adaptive", false)),
            "independent problems must not share a key"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Under a byte budget far too small for the working set, the cache
    /// churns through evictions — and every response, hit or miss, stays
    /// byte-identical to scheduling the request directly.
    #[test]
    fn eviction_never_changes_response_bytes(seed in 0u64..200) {
        // 8 KiB holds roughly one memo + entry pair (~4 KiB), so an
        // immediate repeat hits while the 20-request working set
        // (~80 KiB) forces constant eviction churn.
        let state = ServerState::new(ServerConfig {
            workers: 2,
            cache_bytes: 8 * 1024,
            ..ServerConfig::default()
        });
        let workers = state.spawn_workers();

        let pool: Vec<String> = (0..5)
            .map(|i| spec::print_problem(&random_problem(6 + i, seed * 31 + i as u64)))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for n in 0..20u32 {
            let spec_text = &pool[rng.gen_range(0usize..pool.len())];
            // Trailing spaces: same canonical problem, distinct raw key.
            let padded = format!("{}{}", spec_text, " ".repeat(rng.gen_range(0usize..3)));
            let include = rng.gen_bool(0.3);
            let line = format!(
                "{{\"spec\": {}, \"include_schedule\": {}}}",
                serde_json::to_string(&padded).unwrap(),
                include
            );
            let expected = match parse_request(&line) {
                Ok(Request::Schedule(req)) => direct_response(&req),
                other => panic!("test built a schedule request, got {other:?}"),
            };
            let cold = state.handle_frame(&line).response().to_owned();
            prop_assert_eq!(&cold, &expected, "cold response diverged at request {}", n);
            let warm = state.handle_frame(&line).response().to_owned();
            prop_assert_eq!(&warm, &expected, "warm response diverged at request {}", n);
        }
        let stats = state.cache_stats();
        prop_assert!(stats.hits > 0, "immediate repeats must hit the cache");
        prop_assert!(
            stats.evictions > 0,
            "an 8 KiB budget must force evictions ({} insertions)",
            stats.insertions
        );
        state.begin_shutdown();
        for w in workers {
            w.join().expect("worker exits cleanly");
        }
    }
}

/// Canonical keys and rendered JSON pinned byte for byte: snapshots
/// persist the keys, so a key format change would orphan every persisted
/// entry, and clients read the rendered bytes. The files under
/// `tests/golden/canonical_key_*.txt` were generated from the
/// `format!`-per-entry key implementation, the `render_*.json` files from
/// the `format!`-built JSON renderers. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test service_cache pinned` — never as a
/// side effect of making a failing test pass.
mod pinned_keys {
    use super::*;
    use ftbar::core::ProblemEdit;
    use ftbar::model::paper_example;
    use ftbar::service::persist::ArtifactSeed;
    use ftbar::service::proto::{render_edit, render_error, render_ok, ErrorCode};
    use ftbar::service::{render_json, run_batch, BatchConfig, JobInput, JobSpec};
    use ftbar::sim::scenario;

    /// A problem as `ftbar gen --n N --seed S` builds it on `machine`.
    fn generated(machine: ftbar::model::Arch, n_ops: usize, seed: u64) -> Problem {
        let alg = layered(&LayeredConfig {
            n_ops,
            seed,
            ..Default::default()
        });
        timing(
            alg,
            machine,
            &TimingConfig {
                npf: 1,
                seed,
                ..Default::default()
            },
        )
        .expect("generated problems are valid")
    }

    /// Names whose entries sort differently from their bare names:
    /// `A.x/comp` < `A/comp` because `.` (0x2E) < `/` (0x2F), and `A1@` <
    /// `A@` because `1` (0x31) < `@` (0x40).
    const DOTTED: &str = "
        algorithm dots { op A; op A.x kind mem; op A1; op A_; op a; op B.2;
          dep A -> A.x size 1.5; dep A1 -> A; dep A_ -> a; dep A -> B.2; dep A1 -> B.2; }
        architecture m { proc P; proc P.1; proc P1; link L: P -- P.1;
          link L.1: P.1 -- P1; link L1: P -- P1 -- P.1; }
        exec { A on P = 1; A on P.1 = 1.5; A on P1 = inf; A.x on P = 2; A.x on P.1 = 2;
          A.x on P1 = 2; A1 on P = 1; A1 on P.1 = 1; A1 on P1 = 1; A_ on P = 1;
          A_ on P.1 = 1; A_ on P1 = 1; a on P = 3; a on P.1 = inf; a on P1 = 3;
          B.2 on P = 1; B.2 on P.1 = 1; B.2 on P1 = 1; }
        comm { A -> A.x on L = 1; A -> A.x on L.1 = 1; A -> A.x on L1 = 1;
          A1 -> A on L = 1; A1 -> A on L.1 = 1; A1 -> A on L1 = 0.5;
          A_ -> a on L = 1; A_ -> a on L.1 = 1; A_ -> a on L1 = 1;
          A -> B.2 on L = 2; A -> B.2 on L.1 = 2; A -> B.2 on L1 = 2;
          A1 -> B.2 on L = 1; A1 -> B.2 on L.1 = 1; A1 -> B.2 on L1 = 1; }
        rtc 40; npf 1;";

    fn check(name: &str, key: &str) {
        check_file(&format!("canonical_key_{name}.txt"), key);
    }

    fn check_file(file: &str, bytes: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join(file);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, bytes).unwrap();
            return;
        }
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert!(bytes == pinned, "pinned bytes of `{file}` changed");
    }

    #[test]
    fn canonical_keys_match_pinned_bytes() {
        let dotted = spec::parse_problem(DOTTED).expect("dotted spec parses");
        let ring = generated(arch::ring(6), 40, 3);
        let mesh = generated(arch::mesh(3, 2), 40, 4);
        let cases = [
            (
                "paper",
                paper_example(),
                SchedulerKind::Ftbar,
                "adaptive",
                false,
            ),
            ("ring6_seed3", ring, SchedulerKind::Hbp, "naive", true),
            (
                "mesh3x2_seed4",
                mesh,
                SchedulerKind::Ftbar,
                "clustered",
                false,
            ),
            ("dotted", dotted, SchedulerKind::Ftbar, "adaptive", true),
        ];
        for (name, problem, scheduler, strategy, include) in cases {
            check(name, &canonical_key(&problem, scheduler, strategy, include));
        }
    }

    /// The batch report with `--schedules`: both schedulers on the paper
    /// example, plus a poisoned job whose name and message need escaping.
    #[test]
    fn batch_report_matches_pinned_bytes() {
        let paper = |scheduler| JobSpec {
            name: format!("paper-{}", SchedulerKind::name(scheduler)),
            input: JobInput::Problem(Box::new(paper_example())),
            scheduler,
            npf: None,
        };
        let jobs = vec![
            paper(SchedulerKind::Ftbar),
            JobSpec {
                name: "bad \"spec\"\\path".into(),
                input: JobInput::Spec("algorithm a { op \"x }".into()),
                scheduler: SchedulerKind::Ftbar,
                npf: None,
            },
            paper(SchedulerKind::Hbp),
        ];
        let config = BatchConfig {
            keep_schedules: true,
            ..BatchConfig::default()
        };
        check_file(
            "render_batch_paper.json",
            &render_json(&run_batch(&jobs, &config)),
        );
    }

    /// A degraded response with its schedule, one without schedule or
    /// `Rtc` verdict, and error responses with and without an id that
    /// needs escaping.
    #[test]
    fn responses_match_pinned_bytes() {
        let jobs = [JobSpec {
            name: "paper".into(),
            input: JobInput::Problem(Box::new(paper_example())),
            scheduler: SchedulerKind::Ftbar,
            npf: None,
        }];
        let config = BatchConfig {
            keep_schedules: true,
            ..BatchConfig::default()
        };
        let result = run_batch(&jobs, &config).remove(0).result.unwrap();
        let mut out = render_ok(Some("r\"1"), &result, true);
        out.push('\n');
        let without_rtc = ftbar::service::JobResult {
            rtc_met: None,
            schedule: None,
            ..result.clone()
        };
        out.push_str(&render_ok(None, &without_rtc, false));
        out.push('\n');
        out.push_str(&render_error(
            Some("e\\1"),
            ErrorCode::BadEdit,
            "bad edit: unknown op `Z`\n\"quoted\"",
        ));
        out.push('\n');
        out.push_str(&render_error(None, ErrorCode::Overloaded, "queue full"));
        out.push('\n');
        check_file("render_responses.json", &out);
    }

    fn every_edit() -> Vec<ProblemEdit> {
        vec![
            ProblemEdit::TweakExec {
                op: "A".into(),
                proc: "P \"1\"".into(),
                units: 2.5,
            },
            ProblemEdit::TweakComm {
                src: "A".into(),
                dst: "B".into(),
                units: 0.125,
            },
            ProblemEdit::AllowProc {
                op: "A".into(),
                proc: "P1".into(),
                units: 3.0,
            },
            ProblemEdit::ForbidProc {
                op: "A".into(),
                proc: "P1".into(),
            },
            ProblemEdit::ProcDown { proc: "P2".into() },
            ProblemEdit::ProcUp {
                proc: "P2".into(),
                units: 1.5,
            },
            ProblemEdit::LinkDown {
                link: "L\\0".into(),
            },
            ProblemEdit::LinkUp {
                link: "L0".into(),
                units: 7.0,
            },
            ProblemEdit::AddOp {
                name: "N".into(),
                units: 1.0,
                preds: vec!["A".into(), "B".into()],
                succs: vec![],
                comm_units: 0.5,
            },
            ProblemEdit::RemoveOp { name: "A".into() },
            ProblemEdit::SetNpf { npf: 2 },
        ]
    }

    /// Every edit kind, and artifact seeds with and without an `npf`
    /// override (the snapshot's seed records).
    #[test]
    fn edits_and_seeds_match_pinned_bytes() {
        let edits = every_edit();
        assert_eq!(edits.len(), 11, "one edit per kind");
        let mut out: String = edits.iter().map(|e| render_edit(e) + "\n").collect();
        let seeds = [
            ArtifactSeed {
                scheduler: SchedulerKind::Ftbar,
                strategy: "adaptive".into(),
                npf: Some(1),
                include_schedule: true,
                spec: spec::print_problem(&paper_example()).into(),
                edits: edits[..3].to_vec(),
            },
            ArtifactSeed {
                scheduler: SchedulerKind::Hbp,
                strategy: "naive".into(),
                npf: None,
                include_schedule: false,
                spec: "algorithm \"q\" {}\n".into(),
                edits: Vec::new(),
            },
        ];
        for seed in &seeds {
            out.push_str(&seed.render());
            out.push('\n');
        }
        check_file("render_edits_and_seeds.json", &out);
    }

    /// Every decision a `ResponseCache` makes under a tight budget: a
    /// seeded stream of raw lookups with an insert after each miss (raw
    /// texts share canonical keys, so entries outlive their memos and
    /// memos dangle), then the export restored into a tighter cache. Each
    /// outcome, the byte and entry counts after it, the final stats and
    /// the export order are recorded.
    #[test]
    fn cache_decisions_match_pinned_bytes() {
        use ftbar::service::cache::ResponseCache;
        use std::fmt::Write;
        use std::sync::Arc;

        let raw = |i: usize| format!("raw-{i}|{}", "r".repeat(i * 53 % 700));
        let canon = |j: usize| format!("canon-{j}|{}", "c".repeat(j * 37 % 400));
        let body = |j: usize| format!("body-{j},{}", "b".repeat(j * 91 % 900));
        let label = |s: &str| s[..s.find([',', '|']).unwrap()].to_owned();
        let counts = |c: &ResponseCache| {
            format!(
                "used {} len {} memo {}",
                c.used_bytes(),
                c.len(),
                c.memo_len()
            )
        };
        let mut out = String::new();
        let mut rng = StdRng::seed_from_u64(29);
        let mut cache = ResponseCache::new(8 * 1024);
        for step in 0..600 {
            let i = rng.gen_range(0usize..24);
            let r = raw(i);
            let outcome = match cache.get_raw(&r) {
                Some(b) => format!("hit {}", label(&b)),
                None => {
                    let j = i % 17;
                    cache.insert(&r, canon(j).as_str(), &Arc::from(body(j).as_str()));
                    format!("miss, insert canon-{j}")
                }
            };
            writeln!(out, "{step} raw-{i} {outcome}; {}", counts(&cache)).unwrap();
        }
        writeln!(out, "stats {:?}", cache.stats()).unwrap();
        let (entries, memos) = cache.export();
        for (k, b) in &entries {
            writeln!(out, "export entry {} {}", label(k), label(b)).unwrap();
        }
        for (r, k) in &memos {
            writeln!(out, "export memo {} {}", label(r), label(k)).unwrap();
        }
        let mut tight = ResponseCache::new(5 * 1024);
        for (k, b) in &entries {
            tight.restore_entry(k, b);
            writeln!(out, "restore entry {}; {}", label(k), counts(&tight)).unwrap();
        }
        for (r, k) in &memos {
            tight.restore_memo(r, k);
            writeln!(out, "restore memo {}; {}", label(r), counts(&tight)).unwrap();
        }
        for i in 0..24 {
            let outcome = tight
                .get_raw(raw(i).as_str())
                .map_or("miss".into(), |b| label(&b));
            writeln!(out, "restored raw-{i} {outcome}; {}", counts(&tight)).unwrap();
        }
        writeln!(out, "restored stats {:?}", tight.stats()).unwrap();
        check_file("cache_decisions.txt", &out);
    }

    /// The contingency report with the link and jitter sweeps on.
    #[test]
    fn scenario_report_matches_pinned_bytes() {
        let problem = paper_example();
        let schedule = ftbar::core::ftbar::schedule(&problem).unwrap();
        let config = scenario::ScenarioConfig {
            links: true,
            jitter_samples: 3,
            ..Default::default()
        };
        let report = scenario::run(&problem, &schedule, &config);
        check_file(
            "render_scenarios_paper.json",
            &scenario::render_json(&report),
        );
    }

    /// Replaces the digits after each `"key": ` with `_`: the wall-clock
    /// fields of a status body.
    fn mask(body: &str, keys: &[&str]) -> String {
        let mut out = body.to_owned();
        for key in keys {
            let tag = format!("\"{key}\": ");
            let mut from = 0;
            while let Some(at) = out[from..].find(&tag) {
                let start = from + at + tag.len();
                let end = out[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(out.len(), |e| start + e);
                if end > start {
                    out.replace_range(start..end, "_");
                }
                from = start;
            }
        }
        out
    }

    /// The `status`, `snapshot` and `shutdown` bodies of a daemon that
    /// served a cold request, a hit, a repair and a bad frame, then of a
    /// second daemon restored from its snapshot.
    #[test]
    fn daemon_bodies_match_pinned_bytes() {
        let dir = std::env::temp_dir().join(format!("ftbar-pinned-status-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("state.snap");
        let _ = std::fs::remove_file(&snap);
        let config = ServerConfig {
            workers: 1,
            snapshot_path: Some(snap.clone()),
            ..ServerConfig::default()
        };
        let masked = ["uptime_ms", "last_age_ms"];
        let spec_json = serde_json::to_string(&spec::print_problem(&paper_example())).unwrap();
        let schedule = format!("{{\"id\": \"a\", \"spec\": {spec_json}}}");
        let resched = format!(
            "{{\"op\": \"reschedule\", \"spec\": {spec_json}, \"edit\": \
             {{\"kind\": \"tweak_exec\", \"op\": \"I\", \"proc\": \"P1\", \"units\": 4}}}}"
        );
        let mut out = String::new();

        let state = ServerState::new(config.clone());
        let workers = state.spawn_workers();
        out.push_str(&mask(
            state.handle_frame(r#"{"op": "status"}"#).response(),
            &masked,
        ));
        out.push('\n');
        for line in [schedule.as_str(), &schedule, &resched, "not json"] {
            state.handle_frame(line);
        }
        out.push_str(state.handle_frame(r#"{"op": "snapshot"}"#).response());
        out.push('\n');
        out.push_str(&mask(
            state.handle_frame(r#"{"op": "status"}"#).response(),
            &masked,
        ));
        out.push('\n');
        out.push_str(state.handle_frame(r#"{"op": "shutdown"}"#).response());
        out.push('\n');
        for w in workers {
            w.join().expect("worker exits cleanly");
        }

        let restored = ServerState::new(config);
        restored.restore_from_snapshot();
        out.push_str(&mask(
            restored.handle_frame(r#"{"op": "status"}"#).response(),
            &masked,
        ));
        out.push('\n');
        let _ = std::fs::remove_dir_all(&dir);
        check_file("render_daemon_bodies.json", &out);
    }
}

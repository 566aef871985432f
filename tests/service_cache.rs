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

/// Canonical keys pinned byte for byte: snapshots persist them, so a key
/// format change would orphan every persisted entry. The files under
/// `tests/golden/canonical_key_*.txt` were generated from the
/// `format!`-per-entry implementation. Regenerate deliberately with
/// `UPDATE_GOLDEN=1 cargo test --test service_cache pinned` — never as a
/// side effect of making a failing test pass.
mod pinned_keys {
    use super::*;
    use ftbar::model::paper_example;

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
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests")
            .join("golden")
            .join(format!("canonical_key_{name}.txt"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, key).unwrap();
            return;
        }
        let pinned = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        assert!(key == pinned, "canonical key of `{name}` changed");
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
}

//! Round-trip properties of the persistence layers: the spec language and
//! serde serialization, driven through randomly generated problems.

use ftbar::model::spec::{parse_problem, print_problem};
use ftbar::prelude::*;
use ftbar::workload::{arch, layered, timing, LayeredConfig, TimingConfig};
use proptest::prelude::*;

fn make_problem(n_ops: usize, procs: usize, seed: u64, forbid: f64) -> Problem {
    let alg = layered(&LayeredConfig {
        n_ops,
        seed,
        ..Default::default()
    });
    timing(
        alg,
        arch::fully_connected(procs),
        &TimingConfig {
            ccr: 1.7,
            npf: 1,
            forbid_prob: forbid,
            seed,
            ..Default::default()
        },
    )
    .expect("valid problem")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spec_round_trip_preserves_the_problem(
        n_ops in 2usize..20,
        procs in 2usize..5,
        seed in 0u64..10_000,
        forbid in 0.0f64..0.4,
    ) {
        let p = make_problem(n_ops, procs, seed, forbid);
        let text = print_problem(&p);
        let q = parse_problem(&text).expect("printed specs parse");
        prop_assert_eq!(p.alg().op_count(), q.alg().op_count());
        prop_assert_eq!(p.alg().dep_count(), q.alg().dep_count());
        prop_assert_eq!(p.npf(), q.npf());
        for op in p.alg().ops() {
            for proc in p.arch().procs() {
                prop_assert_eq!(p.exec().get(op, proc), q.exec().get(op, proc));
            }
        }
        for dep in p.alg().deps() {
            for link in p.arch().links() {
                prop_assert_eq!(p.comm().get(dep, link), q.comm().get(dep, link));
            }
        }
        // Printing is a fixpoint.
        prop_assert_eq!(print_problem(&q), text);
    }

    #[test]
    fn reparsed_problems_schedule_identically(
        n_ops in 2usize..16,
        seed in 0u64..10_000,
    ) {
        let p = make_problem(n_ops, 3, seed, 0.0);
        let q = parse_problem(&print_problem(&p)).expect("parses");
        let sp = ftbar_schedule(&p).expect("schedules");
        let sq = ftbar_schedule(&q).expect("schedules");
        prop_assert_eq!(sp.makespan(), sq.makespan());
        prop_assert_eq!(sp.replica_count(), sq.replica_count());
        prop_assert_eq!(sp.comm_count(), sq.comm_count());
    }

    #[test]
    fn schedules_survive_json_round_trip(
        n_ops in 2usize..14,
        seed in 0u64..10_000,
    ) {
        let p = make_problem(n_ops, 3, seed, 0.0);
        let s = ftbar_schedule(&p).expect("schedules");
        let json = serde_json::to_string(&s).expect("serializes");
        let back: Schedule = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(&s, &back);
        // And the deserialized schedule still validates.
        let violations = validate(&p, &back);
        prop_assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn problems_survive_json_round_trip(
        n_ops in 2usize..14,
        seed in 0u64..10_000,
    ) {
        let p = make_problem(n_ops, 3, seed, 0.2);
        let json = serde_json::to_string(&p).expect("serializes");
        let back: Problem = serde_json::from_str(&json).expect("deserializes");
        let sp = ftbar_schedule(&p).expect("schedules");
        let sb = ftbar_schedule(&back).expect("schedules");
        prop_assert_eq!(sp, sb);
    }
}

/// `parse(print(p)) == p` on generated problems over every generator
/// topology, up to N = 500: the whole `Problem` (tables, deps in order,
/// route table) must come back, not just its counts.
#[test]
fn parse_inverts_print_on_generated_topologies() {
    let machines = [
        ("full6", arch::fully_connected(6)),
        ("ring6", arch::ring(6)),
        ("mesh3x2", arch::mesh(3, 2)),
        ("hcube3", arch::hypercube(3)),
    ];
    for (name, machine) in machines {
        for (n_ops, seed) in [(1, 3), (20, 11), (120, 5), (500, 7)] {
            let alg = layered(&LayeredConfig {
                n_ops,
                seed,
                ..Default::default()
            });
            let p = timing(
                alg,
                machine.clone(),
                &TimingConfig {
                    ccr: 5.0,
                    npf: 1,
                    forbid_prob: 0.1,
                    seed,
                    ..Default::default()
                },
            )
            .expect("valid problem");
            let text = print_problem(&p);
            let q = parse_problem(&text).expect("printed specs parse");
            assert_eq!(
                serde_json::to_string(&q).unwrap(),
                serde_json::to_string(&p).unwrap(),
                "{name} N={n_ops}: reparsed problem differs"
            );
            assert_eq!(print_problem(&q), text, "{name} N={n_ops}");
        }
    }
}

/// The compact and pretty JSON of a schedule, a problem and a hand-built
/// `Value` are pinned byte for byte in `tests/golden/serde_*.json`.
/// Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test --test
/// spec_and_serde pinned` — never as a reflex to a failure.
#[test]
fn serializer_output_matches_pinned_bytes() {
    use serde::{Number, Value};

    fn check<T: serde::Serialize>(name: &str, value: &T) {
        for (layout, text) in [
            ("compact", serde_json::to_string(value).unwrap()),
            ("pretty", serde_json::to_string_pretty(value).unwrap()),
        ] {
            let file = format!("serde_{name}_{layout}.json");
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests")
                .join("golden")
                .join(&file);
            if std::env::var_os("UPDATE_GOLDEN").is_some() {
                std::fs::write(&path, &text).unwrap();
                continue;
            }
            let pinned = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
            assert!(text == pinned, "pinned bytes of `{file}` changed");
        }
    }

    let ring = {
        let alg = layered(&LayeredConfig {
            n_ops: 12,
            seed: 3,
            ..Default::default()
        });
        let config = TimingConfig {
            ccr: 2.0,
            npf: 1,
            forbid_prob: 0.1,
            seed: 3,
            ..Default::default()
        };
        timing(alg, arch::ring(4), &config).expect("valid problem")
    };
    let schedule = ftbar::core::ftbar::schedule(&ring).expect("ring schedules");
    check("schedule_ring4", &schedule);
    check("problem_ring4", &ring);
    check("problem_paper", &ftbar::model::paper_example());

    let number = |n| Value::Number(n);
    let value = Value::Object(vec![
        ("empty_object".into(), Value::Object(Vec::new())),
        ("empty_array".into(), Value::Array(Vec::new())),
        ("null".into(), Value::Null),
        (
            "flags".into(),
            Value::Array(vec![Value::Bool(true), Value::Bool(false)]),
        ),
        (
            "numbers".into(),
            Value::Array(vec![
                number(Number::UInt(0)),
                number(Number::UInt(u64::MAX)),
                number(Number::Int(-1)),
                number(Number::Int(i64::MIN)),
                number(Number::Float(0.0)),
                number(Number::Float(-0.0)),
                number(Number::Float(1.5)),
                number(Number::Float(-2.25e-7)),
                number(Number::Float(1e300)),
                number(Number::Float(0.1 + 0.2)),
                number(Number::Float(f64::NAN)),
                number(Number::Float(f64::INFINITY)),
            ]),
        ),
        (
            "text".into(),
            Value::String("quote \" backslash \\ slash / newline \n tab \t cr \r".into()),
        ),
        (
            "control".into(),
            Value::String("\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}".into()),
        ),
        ("non_ascii".into(), Value::String("é ∆ 漢字 🦀".into())),
        (
            "key \"quoted\"\n".into(),
            Value::Array(vec![
                Value::Array(Vec::new()),
                Value::Object(vec![("a".into(), Value::Null)]),
            ]),
        ),
    ]);
    check("value", &value);
}

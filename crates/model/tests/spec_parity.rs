//! Parity of the spec front end with its earlier, token-cloning version.
//!
//! The expected `Display` texts below were recorded from that version;
//! the borrowed lexer and hash-indexed name resolution must reproduce
//! every one of them, positions included.

use ftbar_model::spec::{parse_problem, ParseError};
use ftbar_model::{DepId, LinkId, ModelError};

const MINI_ALG: &str = "algorithm a { op X; op Y kind extio; dep X -> Y size 2; }\n";
const MINI_ARCH: &str = "architecture m { proc P1; proc P2; link L: P1 -- P2; }\n";
const MINI_EXEC: &str = "exec { X on P1 = 1; X on P2 = 1.5; Y on P1 = 2; Y on P2 = inf; }\n";
const MINI_COMM: &str = "comm { X -> Y on L = 0.5; }\n";

fn cases() -> Vec<(&'static str, String, &'static str)> {
    let mini = |alg: &str, arch: &str, exec: &str, comm: &str, tail: &str| {
        format!("{alg}{arch}{exec}{comm}{tail}")
    };
    let ok = |tail: &str| mini(MINI_ALG, MINI_ARCH, MINI_EXEC, MINI_COMM, tail);
    vec![
        ("empty input", String::new(), "missing `algorithm` section"),
        ("only a comment", "# nothing here, ü\n".to_owned(), "missing `algorithm` section"),
        ("unknown op in exec", mini(MINI_ALG, MINI_ARCH, "exec { X on P1 = 1; Z on P1 = 1; }\n", "", ""), "invalid model: unknown operation `Z`"),
        ("unknown op in dep", mini("algorithm a { op X; dep X -> Z; }\n", MINI_ARCH, "exec { X on P1 = 1; }\n", "", ""), "invalid model: unknown operation `Z`"),
        ("dep before its op", mini("algorithm a { op X; dep X -> Y; op Y; }\n", MINI_ARCH, MINI_EXEC, "", ""), "invalid model: unknown operation `Y`"),
        ("unknown proc in exec", mini(MINI_ALG, MINI_ARCH, "exec { X on P1 = 1; X on P9 = 1; }\n", "", ""), "invalid model: unknown processor `P9`"),
        ("unknown proc in link", mini(MINI_ALG, "architecture m { proc P1; proc P2; link L: P1 -- P9; }\n", MINI_EXEC, "", ""), "invalid model: unknown processor `P9`"),
        ("link before its proc", mini(MINI_ALG, "architecture m { proc P1; link L: P1 -- P2; proc P2; }\n", MINI_EXEC, "", ""), "invalid model: unknown processor `P2`"),
        ("unknown link in comm", mini(MINI_ALG, MINI_ARCH, MINI_EXEC, "comm { X -> Y on L9 = 0.5; }\n", ""), "invalid model: unknown link `L9`"),
        ("unknown dep in comm", mini(MINI_ALG, MINI_ARCH, MINI_EXEC, "comm { Y -> X on L = 0.5; }\n", ""), "invalid model: unknown dependency `Y -> X`"),
        ("unknown op in comm", mini(MINI_ALG, MINI_ARCH, MINI_EXEC, "comm { X -> Q on L = 0.5; }\n", ""), "invalid model: unknown dependency `X -> Q`"),
        ("unknown op before unknown proc", mini(MINI_ALG, MINI_ARCH, "exec { Z on P9 = 1; }\n", "", ""), "invalid model: unknown operation `Z`"),
        ("unknown dep before unknown link", mini(MINI_ALG, MINI_ARCH, MINI_EXEC, "comm { Y -> X on L9 = 0.5; }\n", ""), "invalid model: unknown dependency `Y -> X`"),
        ("lone dash", mini("algorithm a { op X; op Y; dep X - Y; }\n", MINI_ARCH, MINI_EXEC, "", ""), "unexpected character `-` at 1:33"),
        ("dash at end of input", ok("npf 1 -"), "unexpected character `-` at 5:7"),
        ("non-ascii identifier", mini("algorithm a { op Xé; }\n", MINI_ARCH, MINI_EXEC, "", ""), "unexpected character `é` at 1:19"),
        ("non-ascii after comment line", "# opération ü\n  algorithm é { }".to_owned(), "unexpected character `é` at 2:13"),
        ("non-ascii comment then syntax error", "# données: ü·ß\nalgorithm a { op ; }\n".to_owned(), "expected operation name, found `;` at 2:18"),
        ("non-ascii comment then unknown name", format!("# ünïcödé\n{}", mini("algorithm a { op X; dep X -> Z; }\n", MINI_ARCH, MINI_EXEC, "", "")), "invalid model: unknown operation `Z`"),
        ("end of input after non-ascii comment", "algorithm a { op X; # ü ñ".to_owned(), "expected `op`, `dep` or `}`, found end of input at 1:26"),
        ("time literal out of range", mini(MINI_ALG, MINI_ARCH, "exec { X on P1 = 99999999999999999999; }\n", "", ""), "expected time literal, found number `99999999999999999999` at 3:18"),
        ("time literal too precise", mini(MINI_ALG, MINI_ARCH, "exec { X on P1 = 1.2345; }\n", "", ""), "expected time literal, found number `1.2345` at 3:18"),
        ("deadline out of range", ok("rtc 18446744073709552;"), "expected deadline, found number `18446744073709552` at 5:5"),
        ("deadline too precise", ok("rtc 0.0001;"), "expected deadline, found number `0.0001` at 5:5"),
        ("comm time out of range", mini(MINI_ALG, MINI_ARCH, MINI_EXEC, "comm { X -> Y on L = 18446744073709551616; }\n", ""), "expected time literal, found number `18446744073709551616` at 4:22"),
        ("non-integer npf", ok("npf 1.5;"), "expected non-negative integer, found `;` at 5:8"),
        ("npf without number", ok("npf one;"), "expected failure count, found identifier `one` at 5:5"),
        ("npf larger than procs", ok("npf 4000000000;"), "invalid model: cannot tolerate 4000000000 failures with only 2 processors"),
        ("missing semicolon", ok("rtc 10 npf 0;"), "expected `;`, found identifier `npf` at 5:8"),
        ("bad op kind", mini("algorithm a { op X kind foo; }\n", MINI_ARCH, MINI_EXEC, "", ""), "expected `comp`, `mem` or `extio`, found `;` at 1:28"),
        ("zero data size", mini("algorithm a { op X; op Y; dep X -> Y size 0; }\n", MINI_ARCH, MINI_EXEC, "", ""), "expected positive finite data size, found `;` at 1:44"),
        ("missing on", mini(MINI_ALG, MINI_ARCH, "exec { X P1 = 1; }\n", "", ""), "expected `on`, found identifier `P1` at 3:10"),
        ("missing time", mini(MINI_ALG, MINI_ARCH, "exec { X on P1 = ; }\n", "", ""), "expected time literal or `inf`, found `;` at 3:18"),
        ("double dot number", mini(MINI_ALG, MINI_ARCH, "exec { X on P1 = 1.2.3; }\n", "", ""), "unexpected character `.` at 3:21"),
        ("duplicate exec section", ok("exec { }"), "duplicate `exec` section at line 5"),
        ("missing exec section", mini(MINI_ALG, MINI_ARCH, "", "", ""), "missing `exec` section"),
        ("missing architecture", mini(MINI_ALG, "", MINI_EXEC, "", ""), "missing `architecture` section"),
        ("unknown top-level keyword", ok("deadline 3;"), "expected `algorithm`, `architecture`, `exec`, `comm`, `rtc` or `npf`, found identifier `deadline` at 5:1"),
        ("unclosed algorithm", "algorithm a { op X;".to_owned(), "expected `op`, `dep` or `}`, found end of input at 1:20"),
        ("lex error after syntax error", "algorithm a { op ; }\n op $".to_owned(), "unexpected character `$` at 2:5"),
        ("lex error after model error", format!("{}\n@", mini("algorithm a { op X; dep X -> Z; }\n", MINI_ARCH, MINI_EXEC, "", "")), "unexpected character `@` at 5:1"),
        ("lex error after unknown exec name", format!("{}%", mini(MINI_ALG, MINI_ARCH, "exec { Z on P1 = 1; }\n", "", "")), "unexpected character `%` at 4:1"),
        ("first of two lex errors", "algorithm a { op X; }\n @ $".to_owned(), "unexpected character `@` at 2:2"),
        ("crlf line endings", "algorithm a {\r\n  op X;\r\n  op ;\r\n}".to_owned(), "expected operation name, found `;` at 3:6"),
        ("tabs count as one column", "algorithm a {\n\t\top ;\n}".to_owned(), "expected operation name, found `;` at 2:6"),
        ("duplicate op", mini("algorithm a { op X; op Y; op X; }\n", MINI_ARCH, MINI_EXEC, "", ""), "invalid model: duplicate operation name `X`"),
        ("duplicate proc", mini(MINI_ALG, "architecture m { proc P1; proc P2; proc P1; link L: P1 -- P2; }\n", MINI_EXEC, "", ""), "invalid model: duplicate processor name `P1`"),
        ("duplicate link", mini(MINI_ALG, "architecture m { proc P1; proc P2; link L: P1 -- P2; link L: P2 -- P1; }\n", MINI_EXEC, "", ""), "invalid model: duplicate link name `L`"),
        ("unroutable dep", mini(MINI_ALG, MINI_ARCH, MINI_EXEC, "", ""), "invalid model: dependency `X -> Y` has no transmission time on link `L` which lies on a required route"),
    ]
}

#[test]
fn malformed_specs_keep_their_error_text() {
    let mut wrong = Vec::new();
    for (name, spec, expected) in cases() {
        let got = match parse_problem(&spec) {
            Ok(_) => "parsed".to_owned(),
            Err(e) => e.to_string(),
        };
        if got != expected {
            wrong.push(format!("{name}: got {got:?}, expected {expected:?}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn parallel_deps_resolve_comm_entries_to_the_first() {
    // X and Y can only run on P1, so no dep needs a route and the second
    // `X -> Y` may go without a comm entry.
    let p = parse_problem(
        "algorithm a { op X; op Y; dep X -> Y size 2; dep X -> Y size 3; }
         architecture m { proc P1; proc P2; link L: P1 -- P2; }
         exec { X on P1 = 1; X on P2 = inf; Y on P1 = 1; Y on P2 = inf; }
         comm { X -> Y on L = 0.5; X -> Y on L = 0.75; }",
    )
    .expect("parallel deps parse");
    let alg = p.alg();
    assert_eq!(alg.dep_count(), 2);
    assert_eq!(alg.dep(DepId(0)).size(), 2.0);
    assert_eq!(alg.dep(DepId(1)).size(), 3.0);
    assert_eq!(alg.dep_by_names("X", "Y"), Some(DepId(0)));
    let l = LinkId(0);
    assert_eq!(p.comm().get(DepId(0), l).map(|t| t.ticks()), Some(750));
    assert_eq!(p.comm().get(DepId(1), l), None);
}

#[test]
fn duplicate_names_are_model_errors() {
    for (spec, dup, kind) in [
        (
            "algorithm a { op X; op X; } architecture m { proc P1; } exec { X on P1 = 1; }",
            "X",
            "operation",
        ),
        (
            // A dep naming the duplicated op still parses first.
            "algorithm a { op X; op Y; op X; dep X -> Y; }
             architecture m { proc P1; } exec { X on P1 = 1; Y on P1 = 1; }",
            "X",
            "operation",
        ),
        (
            "algorithm a { op X; } architecture m { proc P1; proc P1; } exec { X on P1 = 1; }",
            "P1",
            "processor",
        ),
        (
            "algorithm a { op X; }
             architecture m { proc P1; proc P2; link L: P1 -- P2; link L: P1 -- P2; }
             exec { X on P1 = 1; }",
            "L",
            "link",
        ),
    ] {
        match parse_problem(spec) {
            Err(ParseError::Model(ModelError::DuplicateName { name, kind: k })) => {
                assert_eq!((name.as_str(), k), (dup, kind), "{spec}");
            }
            other => panic!("expected a duplicate {kind} name, got {other:?}"),
        }
    }
}

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

// --------------------------------------------------------------------------
// Seeded corpus: every spec's full result, pinned byte for byte
// --------------------------------------------------------------------------

/// The mutation base shared with the workspace's fuzz suite.
const BASE: &str = "algorithm a { op X; op Y kind extio; dep X -> Y size 2; }
architecture m { proc P1; proc P2; link L: P1 -- P2; }
exec { X on P1 = 1; X on P2 = 1.5; Y on P1 = 2; Y on P2 = inf; }
comm { X -> Y on L = 0.5; }
rtc 10; npf 1;";

/// Fragments spliced into specs: structure characters, digits, keywords
/// and multi-byte UTF-8 sequences that stress char-boundary handling.
const GARBAGE: &[&str] = &[
    "{", "}", ";", "->", "--", "=", ":", "0", "9", ".", "inf", "op", "dep", "exec", "\u{0}",
    "\u{e9}", "\u{2206}", "\n", "\t", "\"", "\\",
];

/// splitmix64: a seeded stream that needs no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// `base` with one to seven fragments of `garbage` spliced in.
fn splice(base: &str, seed: u64, garbage: &[&str]) -> String {
    let mut rng = SplitMix(seed);
    let mut spec = base.to_owned();
    for _ in 0..1 + rng.below(7) {
        let frag = garbage[rng.below(garbage.len())];
        let at = floor_char_boundary(&spec, rng.below(spec.len() + 1));
        spec.insert_str(at, frag);
    }
    spec
}

/// The four braced sections of a printed or hand-written spec, in order,
/// plus what follows the last one (`rtc`/`npf`).
fn sections(spec: &str) -> ([&str; 4], &str) {
    let mut parts = [""; 4];
    let mut rest = spec;
    for part in &mut parts {
        let end = rest.find('}').expect("four sections") + 1;
        *part = rest[..end].trim();
        rest = &rest[end..];
    }
    (parts, rest.trim())
}

/// The `name = value;` statements of one braced section, and the section
/// rebuilt from them in `order`.
fn shuffled_section(section: &str, rng: &mut SplitMix) -> String {
    let open = section.find('{').expect("braced section") + 1;
    let close = section.rfind('}').expect("braced section");
    let mut entries: Vec<&str> = section[open..close]
        .split(';')
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .collect();
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i + 1));
    }
    let body: String = entries.iter().map(|e| format!(" {e};")).collect();
    format!("{}{body} }}", &section[..open])
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for at in 0..=p.len() {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

/// The seeded corpus: truncations, garbage splices, hostile numbers,
/// reordered sections (`exec`/`comm` before `algorithm` included) and
/// shuffled table entries, of the fuzz base and of the paper's example.
fn corpus() -> Vec<(String, String)> {
    let paper = ftbar_model::spec::print_problem(&ftbar_model::paper_example());
    let mut cases = Vec::new();
    for at in 0..=BASE.len() {
        cases.push((
            format!("trunc-base-{at}"),
            BASE[..floor_char_boundary(BASE, at)].to_owned(),
        ));
    }
    for at in (0..=paper.len()).step_by(53) {
        cases.push((
            format!("trunc-paper-{at}"),
            paper[..floor_char_boundary(&paper, at)].to_owned(),
        ));
    }
    // With `npf 1` the base cannot replicate `Y`, so most of its mutants
    // stop at validation; its `npf 0` twin and the paper's example reach
    // the resolved tables.
    let base_npf0 = BASE.replace("npf 1", "npf 0");
    for seed in 0..300 {
        cases.push((format!("splice-base-{seed}"), splice(BASE, seed, GARBAGE)));
        cases.push((
            format!("splice-base-npf0-{seed}"),
            splice(&base_npf0, 500 + seed, GARBAGE),
        ));
        cases.push((
            format!("splice-paper-{seed}"),
            splice(&paper, 1_000 + seed, GARBAGE),
        ));
    }
    // Digits, dots and blanks: mutants that mostly stay well-formed and
    // change the numbers the tables resolve to.
    for seed in 0..150 {
        let mild = &["0", "1", "9", ".", " ", "\n"];
        cases.push((
            format!("digits-paper-{seed}"),
            splice(&paper, 2_000 + seed, mild),
        ));
    }
    let mut literals = Vec::new();
    for zeros in [1, 3, 15, 16, 17, 18, 19, 20, 21, 40, 308, 309, 400] {
        literals.push(format!("1{}", "0".repeat(zeros)));
    }
    for frac in 0..6 {
        literals.push(format!("0.{}1", "0".repeat(frac)));
    }
    literals.extend(
        [
            "0",
            "0.0",
            "00000000000000000000007",
            "18446744073709551.615",
            "18446744073709551.616",
        ]
        .map(String::from),
    );
    for lit in &literals {
        for (slot, spec) in [
            ("rtc", format!("{base_npf0} rtc {lit};")),
            ("size", base_npf0.replace("size 2", &format!("size {lit}"))),
            ("npf", base_npf0.replace("npf 0", &format!("npf {lit}"))),
            ("exec", base_npf0.replace("= 1.5", &format!("= {lit}"))),
            ("comm", base_npf0.replace("= 0.5", &format!("= {lit}"))),
        ] {
            cases.push((format!("number-{slot}-{lit}"), spec));
        }
    }
    for (name, spec) in [("base", base_npf0.as_str()), ("paper", paper.as_str())] {
        let (parts, tail) = sections(spec);
        for perm in permutations(4) {
            let order: String = perm.iter().map(|&i| i.to_string()).collect();
            let body: Vec<&str> = perm.iter().map(|&i| parts[i]).collect();
            cases.push((
                format!("order-{name}-{order}-tail-last"),
                format!("{}\n{tail}", body.join("\n")),
            ));
            cases.push((
                format!("order-{name}-{order}-tail-first"),
                format!("{tail}\n{}", body.join("\n")),
            ));
        }
        let mut rng = SplitMix(7);
        for round in 0..12 {
            let exec = shuffled_section(parts[2], &mut rng);
            let comm = shuffled_section(parts[3], &mut rng);
            cases.push((
                format!("shuffle-{name}-{round}"),
                format!("{}\n{}\n{exec}\n{comm}\n{tail}", parts[0], parts[1]),
            ));
        }
    }
    cases
}

/// FNV-1a: names each spec text in the record, so a changed generator
/// shows as a changed hash rather than as a changed result.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Renders the corpus record: one line per spec (`id hash result`, the
/// result being `ok #k` or the escaped error text), then every distinct
/// printed problem under its `#k`.
fn corpus_record() -> String {
    let mut lines = String::new();
    let mut problems: Vec<String> = Vec::new();
    for (id, spec) in corpus() {
        let result = match parse_problem(&spec) {
            Ok(p) => {
                let printed = ftbar_model::spec::print_problem(&p);
                let k = problems
                    .iter()
                    .position(|q| *q == printed)
                    .unwrap_or_else(|| {
                        problems.push(printed);
                        problems.len() - 1
                    });
                format!("ok #{k}")
            }
            Err(e) => format!("err {}", e.to_string().escape_debug()),
        };
        lines.push_str(&format!("{id} {:016x} {result}\n", fnv1a(&spec)));
    }
    for (k, printed) in problems.iter().enumerate() {
        lines.push_str(&format!("=== #{k}\n{printed}"));
    }
    lines
}

/// Regenerate deliberately with `UPDATE_GOLDEN=1 cargo test -p ftbar-model
/// --test spec_parity corpus` — never as a reflex to a failure.
#[test]
fn corpus_results_match_the_pinned_record() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("spec_corpus.golden");
    let record = corpus_record();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &record).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    let wrong: Vec<String> = record
        .lines()
        .zip(pinned.lines())
        .filter(|(got, want)| got != want)
        .take(10)
        .map(|(got, want)| format!("got  {got}\nwant {want}"))
        .collect();
    assert!(
        wrong.is_empty(),
        "corpus results changed:\n{}",
        wrong.join("\n")
    );
    assert_eq!(
        record.lines().count(),
        pinned.lines().count(),
        "corpus size changed"
    );
}

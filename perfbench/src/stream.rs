//! Seeded inputs. Every spec text, request order and edit value is a pure
//! function of the workload seed, so every run with one seed sends the
//! same bytes; the program under test only ever sees the generated text.

use ftbar_core::ProblemEdit;
use ftbar_model::{spec, Problem};
use ftbar_service::proto::render_edit;
use ftbar_workload::{arch, layered, timing, LayeredConfig, TimingConfig};

use crate::stats::json_str;

/// SplitMix64: small, fast and fully specified here, so the request
/// stream does not depend on any library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_4A11_0C0D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Architectures the workloads use.
#[derive(Debug, Clone, Copy)]
pub enum Topology {
    Full(usize),
    Ring(usize),
    Mesh(usize, usize),
}

/// The spec `ftbar-cli gen` prints for the same settings (CCR 5, Npf 1).
pub fn gen_spec(n_ops: usize, topology: Topology, seed: u64) -> String {
    let machine = match topology {
        Topology::Full(p) => arch::fully_connected(p),
        Topology::Ring(p) => arch::ring(p),
        Topology::Mesh(w, h) => arch::mesh(w, h),
    };
    let alg = layered(&LayeredConfig {
        n_ops,
        seed,
        ..Default::default()
    });
    let problem = timing(
        alg,
        machine,
        &TimingConfig {
            ccr: 5.0,
            npf: 1,
            seed,
            ..Default::default()
        },
    )
    .expect("generated problems are well-formed");
    spec::print_problem(&problem)
}

/// `gen` arguments of the two `cli-large` specs: `(class, args)`. Fixed
/// rather than seeded: `gen --n 2000 --procs 6 --ccr 5 --npf 1` fails
/// `--validate` at generator seeds 0 and 3 (see README.md).
pub fn cli_specs(tiny: bool) -> [(Kind, Vec<String>); 2] {
    let (full_n, mesh_n) = if tiny {
        ("120", "100")
    } else {
        ("2000", "1500")
    };
    let args = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    [
        (
            Kind::Full,
            args(&[
                "gen", "--n", full_n, "--procs", "6", "--ccr", "5", "--npf", "1", "--seed", "1",
            ]),
        ),
        (
            Kind::Mesh,
            args(&[
                "gen",
                "--n",
                mesh_n,
                "--procs",
                "6",
                "--topology",
                "mesh:3x2",
                "--ccr",
                "5",
                "--npf",
                "1",
                "--seed",
                "0",
            ]),
        ),
    ]
}

/// Request classes. A percentile is only ever taken within one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// `cli-large`: the N = 2000 fully connected spec.
    Full,
    /// `cli-large`: the N = 1500 mesh spec.
    Mesh,
    /// `daemon-edit`: a chained `reschedule` of a session.
    Edit,
    /// `daemon-edit`: a byte-identical repeat of a session's last line.
    Hit,
    /// `daemon-edit`: a never-seen spec replacing a session.
    Cold,
    /// `daemon-small`: a distinct spec with N in 10..=30.
    Tiny,
    /// `daemon-small`: a distinct spec with N in 31..=60.
    Small,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Full => "full",
            Kind::Mesh => "mesh",
            Kind::Edit => "edit",
            Kind::Hit => "hit",
            Kind::Cold => "cold",
            Kind::Tiny => "tiny",
            Kind::Small => "small",
        }
    }
}

/// One daemon request of a stream.
#[derive(Debug, Clone)]
pub struct Step {
    pub kind: Kind,
    /// Session the step belongs to (`daemon-edit`; 0 otherwise).
    pub session: usize,
    /// The request frame, newline-terminated.
    pub line: String,
    /// Spec text the answer schedules (the edited text for an edit);
    /// `None` for hits.
    pub spec: Option<String>,
}

/// A `schedule` request frame.
pub fn schedule_line(spec: &str, include_schedule: bool) -> String {
    let extra = if include_schedule {
        ", \"include_schedule\": true"
    } else {
        ""
    };
    format!(
        "{{\"op\": \"schedule\", \"spec\": {}{extra}}}\n",
        json_str(spec)
    )
}

/// A `reschedule` request frame: the parent spec plus the edit.
pub fn reschedule_line(spec: &str, edit: &ProblemEdit) -> String {
    format!(
        "{{\"op\": \"reschedule\", \"spec\": {}, \"edit\": {}}}\n",
        json_str(spec),
        render_edit(edit)
    )
}

/// A seeded timing tweak of `p`: `tweak_exec` of an allowed
/// ⟨operation, processor⟩ pair or `tweak_comm` of a dependency, scaled by
/// a factor in `[0.5, 1.5)`.
pub fn make_edit(rng: &mut Rng, p: &Problem) -> ProblemEdit {
    let alg = p.alg();
    let scaled =
        |cur: f64, rng: &mut Rng| ((cur * (0.5 + rng.unit())) * 10.0).round().max(1.0) / 10.0;
    if rng.below(2) == 0 || alg.dep_count() == 0 {
        let op = alg.ops().nth(rng.below(alg.op_count())).expect("in range");
        let procs: Vec<_> = p.exec().allowed_procs(op).collect();
        let proc = procs[rng.below(procs.len())];
        let cur = p.exec().get(op, proc).expect("allowed pair").as_units();
        ProblemEdit::TweakExec {
            op: alg.op(op).name().to_owned(),
            proc: p.arch().proc(proc).name().to_owned(),
            units: scaled(cur, rng),
        }
    } else {
        let dep = alg
            .deps()
            .nth(rng.below(alg.dep_count()))
            .expect("in range");
        let (src, dst) = alg.dep_endpoints(dep);
        let cur = p.comm().avg_units(dep);
        ProblemEdit::TweakComm {
            src: alg.op(src).name().to_owned(),
            dst: alg.op(dst).name().to_owned(),
            units: scaled(if cur.is_finite() { cur } else { 1.0 }, rng),
        }
    }
}

/// Interleaved design sessions of `daemon-edit`.
pub const SESSIONS: usize = 8;

/// Generator seed of the specs that open the sessions. Fixed rather than
/// taken from the workload seed, so the snapshot the timed daemon
/// generation restores, and with it `setup_s`, is the same for every seed;
/// the seed drives everything after the opens.
const OPEN_SEED: u64 = 0x0BE1_5E55;

/// Class sequence of `daemon-edit`, repeated: the class mix is the same
/// for every seed, so throughput does not move with it.
pub const EDIT_CYCLE: [Kind; 5] = [Kind::Edit, Kind::Hit, Kind::Edit, Kind::Hit, Kind::Cold];

struct Session {
    problem: Problem,
    spec: String,
    /// The session's last request line (what a hit repeats).
    last: String,
}

/// The `daemon-edit` request stream.
pub struct EditStream {
    rng: Rng,
    sizes: (usize, usize),
    sessions: Vec<Session>,
    opens: Vec<Step>,
    n: usize,
}

impl EditStream {
    /// Eight sessions, alternately on ring(6) and mesh:3x2, with N spread
    /// evenly over `sizes`, opened from the same specs for every seed.
    pub fn new(seed: u64, sizes: (usize, usize)) -> Self {
        let mut s = EditStream {
            rng: Rng::new(OPEN_SEED),
            sizes,
            sessions: Vec::new(),
            opens: Vec::new(),
            n: 0,
        };
        for i in 0..SESSIONS {
            let step = s.fresh(i);
            s.opens.push(step);
        }
        s.rng = Rng::new(seed);
        s
    }

    /// The cold requests that open the sessions (sent before the stream).
    pub fn opens(&self) -> &[Step] {
        &self.opens
    }

    /// A never-seen spec in session slot `i`. Slot `i` keeps its size and
    /// topology for the whole stream, so the mix of live sessions is the
    /// same for every seed; only the generated graphs differ.
    fn fresh(&mut self, i: usize) -> Step {
        let (lo, hi) = self.sizes;
        let n = lo + (hi - lo) * i / (SESSIONS - 1);
        let topology = if i.is_multiple_of(2) {
            Topology::Ring(6)
        } else {
            Topology::Mesh(3, 2)
        };
        let text = gen_spec(n, topology, self.rng.next_u64());
        let line = schedule_line(&text, false);
        let session = Session {
            problem: spec::parse_problem(&text).expect("generated specs parse"),
            spec: text.clone(),
            last: line.clone(),
        };
        if i < self.sessions.len() {
            self.sessions[i] = session;
        } else {
            self.sessions.push(session);
        }
        Step {
            kind: Kind::Cold,
            session: i,
            line,
            spec: Some(text),
        }
    }

    pub fn next_step(&mut self) -> Step {
        let kind = EDIT_CYCLE[self.n % EDIT_CYCLE.len()];
        self.n += 1;
        let i = self.rng.below(SESSIONS);
        match kind {
            Kind::Hit => Step {
                kind,
                session: i,
                line: self.sessions[i].last.clone(),
                spec: None,
            },
            Kind::Cold => self.fresh(i),
            _ => {
                let s = &self.sessions[i];
                let edit = make_edit(&mut self.rng, &s.problem);
                let edited = edit.apply(&s.problem).expect("timing tweaks apply");
                let text = spec::print_problem(&edited);
                let line = reschedule_line(&s.spec, &edit);
                let s = &mut self.sessions[i];
                s.problem = edited;
                s.spec = text.clone();
                s.last = line.clone();
                Step {
                    kind,
                    session: i,
                    line,
                    spec: Some(text),
                }
            }
        }
    }
}

/// The `daemon-small` request stream: distinct specs on a fully connected
/// 4-processor machine, alternating the two size classes.
pub struct SmallStream {
    rng: Rng,
    n: usize,
}

impl SmallStream {
    pub fn new(seed: u64) -> Self {
        SmallStream {
            rng: Rng::new(seed),
            n: 0,
        }
    }

    pub fn next_step(&mut self) -> Step {
        let (kind, lo, hi) = if self.n.is_multiple_of(2) {
            (Kind::Tiny, 10, 30)
        } else {
            (Kind::Small, 31, 60)
        };
        self.n += 1;
        let size = self.rng.range(lo, hi);
        let text = gen_spec(size, Topology::Full(4), self.rng.next_u64());
        Step {
            kind,
            session: 0,
            line: schedule_line(&text, true),
            spec: Some(text),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edit_bytes(seed: u64) -> String {
        let mut s = EditStream::new(seed, (20, 30));
        let mut out: String = s.opens().iter().map(|st| st.line.as_str()).collect();
        for _ in 0..40 {
            out.push_str(&s.next_step().line);
        }
        out
    }

    fn small_bytes(seed: u64) -> String {
        let mut s = SmallStream::new(seed);
        (0..40).map(|_| s.next_step().line).collect()
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        assert_eq!(edit_bytes(7), edit_bytes(7));
        assert_ne!(edit_bytes(7), edit_bytes(8));
        assert_eq!(small_bytes(7), small_bytes(7));
        assert_ne!(small_bytes(7), small_bytes(8));
    }

    #[test]
    fn sessions_open_alike_for_every_seed() {
        let opens = |seed| -> Vec<String> {
            let s = EditStream::new(seed, (20, 30));
            s.opens().iter().map(|st| st.line.clone()).collect()
        };
        assert_eq!(opens(7), opens(8));
    }

    #[test]
    fn edits_chain_and_hits_repeat_the_last_line() {
        let mut s = EditStream::new(3, (20, 30));
        let mut last: Vec<String> = s.opens().iter().map(|st| st.line.clone()).collect();
        // Each session's current spec: what its last step scheduled.
        let mut current: Vec<String> = s.opens().iter().map(|st| st.spec.clone().unwrap()).collect();
        let mut edits = 0;
        for _ in 0..60 {
            let st = s.next_step();
            match st.kind {
                Kind::Hit => {
                    assert_eq!(st.line, last[st.session]);
                    assert!(st.spec.is_none());
                }
                Kind::Edit => {
                    // The edit is applied to the session's current spec,
                    // the edited text of its previous step, not to the
                    // spec the session opened with.
                    let parent = format!(
                        "{{\"op\": \"reschedule\", \"spec\": {}, \"edit\": ",
                        json_str(&current[st.session])
                    );
                    assert!(st.line.starts_with(&parent), "edit does not chain");
                    let edited = st.spec.clone().unwrap();
                    assert_ne!(edited, current[st.session]);
                    current[st.session] = edited;
                    edits += 1;
                }
                _ => current[st.session] = st.spec.clone().unwrap(),
            }
            last[st.session] = st.line;
        }
        assert!(edits >= 20);
    }
}

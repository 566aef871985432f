//! A naive, single-threaded reference replay: a second implementation of
//! the timed-replay semantics, written from the rules in the
//! [`ftbar_core::replay`] module docs and DESIGN.md §7, and used as a test
//! oracle for that replay.
//!
//! It keeps no comm index, no event queue, no per-link cursor and no ready
//! count. Each step scans every replica, hop and failure for the next
//! instant at which anything can happen, and settles that instant in three
//! phases:
//!
//! 1. replicas and hops whose end is the instant complete;
//! 2. processors whose failure instant it is fall silent;
//! 3. processors start replicas and links grant hops until nothing changes.
//!
//! A step costs time linear in the schedule and a run takes one step per
//! instant, so a run is quadratic; that is fine for the few-hundred-op
//! schedules it checks. Processor and link failures work on every
//! topology, store-and-forward routes included. The options of
//! [`ReplayConfig`](ftbar_core::ReplayConfig) are not supported.

use ftbar_core::{CommId, FailureScenario, ReplayResult, ReplicaId, ReplicaOutcome, Schedule};
use ftbar_model::{LinkId, Problem, ProcId, Time};

/// What the reference replay reports: the per-replica and per-comm results
/// of a [`ReplayResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceRun {
    /// Outcome of each replica, indexed by [`ReplicaId`].
    pub outcomes: Vec<ReplicaOutcome>,
    /// Delivery of each comm at its final destination, indexed by
    /// [`CommId`] (`None`: cancelled or never sent).
    pub arrivals: Vec<Option<Time>>,
}

impl ReferenceRun {
    /// The first replica or comm on which `replay` reports something else,
    /// described for an assertion message; `None` if they agree everywhere.
    pub fn disagreement(&self, replay: &ReplayResult) -> Option<String> {
        let replica = self.outcomes.iter().enumerate().find_map(|(i, &ours)| {
            let theirs = replay.outcome(ReplicaId(i as u32));
            (ours != theirs).then(|| format!("r{i}: reference {ours:?}, replay {theirs:?}"))
        });
        replica.or_else(|| {
            self.arrivals.iter().enumerate().find_map(|(c, &ours)| {
                let theirs = replay.comm_arrival(CommId(c as u32));
                (ours != theirs).then(|| format!("c{c}: reference {ours:?}, replay {theirs:?}"))
            })
        })
    }
}

/// Replays `schedule` under `scenario` with the reference rules.
///
/// # Panics
///
/// Panics if `schedule` does not belong to `problem`.
pub fn run(problem: &Problem, schedule: &Schedule, scenario: &FailureScenario) -> ReferenceRun {
    assert_eq!(schedule.proc_count(), problem.arch().proc_count());
    let per_hop = || -> Vec<Vec<Option<Time>>> {
        schedule
            .comms()
            .iter()
            .map(|c| vec![None; c.hops.len()])
            .collect()
    };
    let mut r = Reference {
        problem,
        schedule,
        scenario,
        now: Time::ZERO,
        reps: vec![Rep::Waiting; schedule.replica_count()],
        dead: vec![false; schedule.proc_count()],
        cancelled: vec![false; schedule.comm_count()],
        sent: per_hop(),
        delivered: per_hop(),
        free_at: vec![Time::ZERO; schedule.link_count()],
    };
    r.step();
    while let Some(t) = r.next_instant() {
        r.now = t;
        r.step();
    }
    ReferenceRun {
        outcomes: r
            .reps
            .iter()
            .map(|&s| match s {
                Rep::Done(start, end) => ReplicaOutcome::Completed { start, end },
                _ => ReplicaOutcome::Lost,
            })
            .collect(),
        arrivals: (0..schedule.comm_count()).map(|c| r.arrival(c)).collect(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rep {
    Waiting,
    Running(Time, Time),
    Done(Time, Time),
    Lost,
}

struct Reference<'a> {
    problem: &'a Problem,
    schedule: &'a Schedule,
    scenario: &'a FailureScenario,
    now: Time,
    reps: Vec<Rep>,
    dead: Vec<bool>,
    cancelled: Vec<bool>,
    /// Per comm, per hop: end of its granted transmission.
    sent: Vec<Vec<Option<Time>>>,
    /// Per comm, per hop: delivery instant at the hop's receiver.
    delivered: Vec<Vec<Option<Time>>>,
    /// Per link: earliest start of its next transmission. Later than `now`
    /// only after a cut, which frees the link at the failure instant.
    free_at: Vec<Time>,
}

impl Reference<'_> {
    /// Settles the current instant: ends, then failures, then starts and
    /// grants until nothing changes.
    fn step(&mut self) {
        let now = self.now;
        for rep in &mut self.reps {
            if let Rep::Running(start, end) = *rep {
                if end == now {
                    *rep = Rep::Done(start, end);
                }
            }
        }
        for (sent, delivered) in self.sent.iter().zip(&mut self.delivered) {
            for (s, d) in sent.iter().zip(delivered.iter_mut()) {
                if *s == Some(now) {
                    *d = Some(now);
                }
            }
        }
        for p in self.problem.arch().procs() {
            if !self.dead[p.index()] && self.scenario.fail_time(p) == Some(now) {
                self.fail(p);
            }
        }
        while self.start_replicas() | self.grant_links() {}
    }

    /// Processor `p` falls silent: it completes nothing more, and every
    /// undelivered comm whose producer is lost, or whose next hop `p` would
    /// send, is cancelled.
    fn fail(&mut self, p: ProcId) {
        self.dead[p.index()] = true;
        for &r in self.schedule.proc_order(p) {
            if !matches!(self.reps[r.index()], Rep::Done(..)) {
                self.reps[r.index()] = Rep::Lost;
            }
        }
        for (c, comm) in self.schedule.comms().iter().enumerate() {
            let next = self.delivered[c].iter().position(Option::is_none);
            let Some(next) = next else { continue };
            if self.reps[comm.src.index()] == Rep::Lost || comm.hops[next].from == p {
                self.cancelled[c] = true;
            }
        }
    }

    /// Starts, on each live processor, the first replica of its static order
    /// that has not completed, if its inputs are complete.
    fn start_replicas(&mut self) -> bool {
        let mut started = false;
        for p in self.problem.arch().procs() {
            if self.dead[p.index()] {
                continue;
            }
            let order = self.schedule.proc_order(p);
            let next = order
                .iter()
                .find(|r| !matches!(self.reps[r.index()], Rep::Done(..)));
            if let Some(&r) = next {
                if self.reps[r.index()] == Rep::Waiting && self.inputs_complete(r) {
                    let end = self.now + self.schedule.replica(r).slot.duration();
                    self.reps[r.index()] = Rep::Running(self.now, end);
                    started = true;
                }
            }
        }
        started
    }

    /// Every dependency of `r` has arrived from its statically wired
    /// source: one of its booked comms if it has any, else the replica of
    /// the producer on `r`'s own processor.
    fn inputs_complete(&self, r: ReplicaId) -> bool {
        let rep = self.schedule.replica(r);
        self.problem.alg().sched_preds(rep.op).all(|(dep, pred)| {
            let mut booked = self
                .schedule
                .comms()
                .iter()
                .enumerate()
                .filter(|(_, comm)| comm.dst == r && comm.dep == dep)
                .peekable();
            if booked.peek().is_none() {
                self.schedule
                    .replica_on(pred, rep.proc)
                    .is_some_and(|l| matches!(self.reps[l.index()], Rep::Done(..)))
            } else {
                booked.any(|(c, _)| self.arrival(c).is_some())
            }
        })
    }

    fn grant_links(&mut self) -> bool {
        let mut acted = false;
        for l in self.problem.arch().links() {
            while !self.on_wire(l) && self.arbitrate(l) {
                acted = true;
            }
        }
        acted
    }

    /// One forfeit-arbitration decision on the idle link `l`: grants the
    /// first ready hop in booked order unless an earlier pending hop still
    /// holds its booked slot (booked start at or after the effective
    /// start). Returns whether a hop was granted or cut.
    fn arbitrate(&mut self, l: LinkId) -> bool {
        let start = self.free_at[l.index()].max(self.now);
        let mut held = false;
        for &(cid, h) in self.schedule.link_order(l) {
            let c = cid.index();
            if !self.pending(c, h) {
                continue;
            }
            let hop = &self.schedule.comm(cid).hops[h];
            if !held && self.ready(c, h) {
                let end = start + hop.slot.duration();
                let cut = [
                    self.scenario.fail_time(hop.from),
                    self.scenario.link_fail_time(l),
                ]
                .into_iter()
                .flatten()
                .min();
                match cut {
                    // The sender or the link is already silent.
                    Some(tf) if tf <= start => self.cancelled[c] = true,
                    // Cut mid-send: discarded, link free from `tf`.
                    Some(tf) if tf < end => {
                        self.cancelled[c] = true;
                        self.free_at[l.index()] = tf;
                    }
                    _ => {
                        self.sent[c][h] = Some(end);
                        self.free_at[l.index()] = end;
                    }
                }
                return true;
            }
            held |= hop.slot.start >= start;
        }
        false
    }

    /// Hop `h` of comm `c` has neither been granted nor cancelled.
    fn pending(&self, c: usize, h: usize) -> bool {
        !self.cancelled[c] && self.sent[c][h].is_none()
    }

    /// Pending hop `h` of comm `c` has its data at the sender.
    fn ready(&self, c: usize, h: usize) -> bool {
        self.pending(c, h)
            && match h {
                0 => {
                    let src = self.schedule.comm(CommId(c as u32)).src;
                    matches!(self.reps[src.index()], Rep::Done(..))
                }
                _ => self.delivered[c][h - 1].is_some(),
            }
    }

    /// A granted hop of `l` is still transmitting.
    fn on_wire(&self, l: LinkId) -> bool {
        self.schedule.link_order(l).iter().any(|&(c, h)| {
            self.sent[c.index()][h].is_some() && self.delivered[c.index()][h].is_none()
        })
    }

    fn arrival(&self, c: usize) -> Option<Time> {
        if self.cancelled[c] {
            return None;
        }
        self.delivered[c].last().copied().flatten()
    }

    /// The earliest instant after now at which something can happen: a
    /// replica or hop end, a failure, or a pending hop ceasing to hold its
    /// slot, one tick after its booked start.
    fn next_instant(&self) -> Option<Time> {
        let ends = self.reps.iter().filter_map(|s| match *s {
            Rep::Running(_, end) => Some(end),
            _ => None,
        });
        let hops = self.sent.iter().zip(&self.delivered).flat_map(|(s, d)| {
            s.iter()
                .zip(d)
                .filter_map(|(&s, d)| if d.is_none() { s } else { None })
        });
        let failures = self
            .problem
            .arch()
            .procs()
            .filter(|p| !self.dead[p.index()])
            .filter_map(|p| self.scenario.fail_time(p));
        let expiries = self
            .schedule
            .comms()
            .iter()
            .enumerate()
            .flat_map(|(c, comm)| {
                comm.hops
                    .iter()
                    .enumerate()
                    .filter(move |&(h, hop)| self.pending(c, h) && hop.slot.start >= self.now)
                    .map(|(_, hop)| hop.slot.start + Time::from_ticks(1))
            });
        ends.chain(hops).chain(failures).chain(expiries).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftbar_core::{ftbar, replay};
    use ftbar_model::paper_example;

    /// The reference agrees with the replay on the paper example.
    fn agrees_with_replay(scenario: &FailureScenario) -> ReferenceRun {
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let ours = run(&p, &s, scenario);
        assert_eq!(ours.disagreement(&replay(&p, &s, scenario)), None);
        ours
    }

    #[test]
    fn nominal_execution_matches_replay() {
        let ours = agrees_with_replay(&FailureScenario::none(3));
        // Fault-free, every replica runs exactly in its booked slot.
        let s = ftbar::schedule(&paper_example()).unwrap();
        for (rep, outcome) in s.replicas().iter().zip(&ours.outcomes) {
            let booked = ReplicaOutcome::Completed {
                start: rep.start(),
                end: rep.end(),
            };
            assert_eq!(*outcome, booked);
        }
    }

    #[test]
    fn single_failures_match_replay() {
        for proc in 0..3u32 {
            agrees_with_replay(&FailureScenario::single(3, ProcId(proc), Time::ZERO));
        }
    }

    #[test]
    fn mid_schedule_failures_match_replay() {
        for ticks in [1_000u64, 3_000, 7_500] {
            let at = Time::from_ticks(ticks);
            agrees_with_replay(&FailureScenario::single(3, ProcId(0), at));
        }
    }

    #[test]
    fn double_failures_terminate_cleanly() {
        // Beyond Npf nothing masks: I runs only on P1 and P2.
        let scen = FailureScenario::multi(3, &[(ProcId(0), Time::ZERO), (ProcId(1), Time::ZERO)]);
        let ours = agrees_with_replay(&scen);
        let p = paper_example();
        let s = ftbar::schedule(&p).unwrap();
        let i = p.alg().op_by_name("I").unwrap();
        for &r in s.replicas_of(i) {
            assert_eq!(ours.outcomes[r.index()], ReplicaOutcome::Lost);
        }
    }
}

//! A small textual specification language for scheduling problems.
//!
//! The format plays the role of SynDEx's input files in the paper's
//! toolchain: it describes the algorithm graph, the architecture graph, the
//! time tables (with `inf` for the `Dis` constraints), the real-time
//! constraint and `npf`. Example:
//!
//! ```text
//! # comments run to end of line
//! algorithm fig2 {
//!   op I kind extio;
//!   op A;                 # defaults to comp
//!   dep I -> A size 2.0;
//! }
//! architecture tri {
//!   proc P1; proc P2;
//!   link L12: P1 -- P2;
//! }
//! exec {
//!   I on P1 = 1;   I on P2 = 1.3;
//!   A on P1 = 2;   A on P2 = inf;   # Dis constraint
//! }
//! comm {
//!   I -> A on L12 = 1.75;
//! }
//! rtc 16;
//! npf 1;
//! ```
//!
//! Parse with [`parse_problem`]; render with [`print_problem`] (the two
//! round-trip).

mod lexer;
mod parser;
mod printer;

pub use lexer::LexError;
pub use parser::{parse_problem, ParseError};
pub use printer::print_problem;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::paper_example;

    #[test]
    fn paper_example_round_trips() {
        let p = paper_example();
        let text = print_problem(&p);
        let p2 = parse_problem(&text).expect("printed spec parses");
        assert_eq!(p2.alg().op_count(), p.alg().op_count());
        assert_eq!(p2.alg().dep_count(), p.alg().dep_count());
        assert_eq!(p2.arch().proc_count(), p.arch().proc_count());
        assert_eq!(p2.arch().link_count(), p.arch().link_count());
        assert_eq!(p2.npf(), p.npf());
        assert_eq!(p2.rtc(), p.rtc());
        // Tables identical entry by entry.
        for op in p.alg().ops() {
            let name = p.alg().op(op).name();
            let op2 = p2.alg().op_by_name(name).unwrap();
            assert_eq!(p.alg().op(op).kind(), p2.alg().op(op2).kind());
            for proc in p.arch().procs() {
                let pname = p.arch().proc(proc).name();
                let proc2 = p2.arch().proc_by_name(pname).unwrap();
                assert_eq!(p.exec().get(op, proc), p2.exec().get(op2, proc2));
            }
        }
        for dep in p.alg().deps() {
            let (s, d) = p.alg().dep_endpoints(dep);
            let dep2 = p2
                .alg()
                .dep_by_names(p.alg().op(s).name(), p.alg().op(d).name())
                .unwrap();
            for link in p.arch().links() {
                let lname = p.arch().link(link).name();
                let link2 = p2.arch().link_by_name(lname).unwrap();
                assert_eq!(p.comm().get(dep, link), p2.comm().get(dep2, link2));
            }
        }
        // And printing again is a fixpoint.
        assert_eq!(print_problem(&p2), text);
    }
}

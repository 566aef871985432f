//! The JSON-lines request/response protocol of the scheduling daemon.
//!
//! One request per line, one response line per request, both UTF-8 JSON.
//! Requests:
//!
//! ```json
//! {"op": "schedule", "id": "r1", "spec": "algorithm a { ... }",
//!  "scheduler": "ftbar", "npf": 1, "strategy": "adaptive",
//!  "timeout_ms": 2000, "include_schedule": false}
//! {"op": "reschedule", "id": "r2", "spec": "algorithm a { ... }",
//!  "edit": {"kind": "tweak_exec", "op": "A", "proc": "P1", "units": 2.5}}
//! {"op": "status"}
//! {"op": "snapshot"}
//! {"op": "shutdown"}
//! ```
//!
//! `reschedule` carries the same fields as `schedule` (they identify the
//! *parent* problem) plus an `edit` object; the daemon answers exactly
//! what `schedule` would answer for the edited problem, repairing the
//! parent's retained schedule incrementally when it can. Edit kinds and
//! their fields: `tweak_exec` (`op`, `proc`, `units`), `tweak_comm`
//! (`src`, `dst`, `units`), `allow_proc` (`op`, `proc`, `units`),
//! `forbid_proc` (`op`, `proc`), `proc_down` (`proc`), `proc_up`
//! (`proc`, `units`), `link_down` (`link`), `link_up` (`link`, `units`),
//! `add_op` (`name`, `units`, `preds`, `succs`, `comm_units`),
//! `remove_op` (`name`), `set_npf` (`npf`). A structurally malformed
//! `edit` answers `bad_request`; an edit that does not *apply* (unknown
//! names, bad values, invalid edited problem) answers `bad_edit`.
//!
//! Responses are rendered with a stable field order so identical requests
//! produce byte-identical response lines (the cache contract). Every
//! failure maps to exactly one documented [`ErrorCode`].

use ftbar_core::edit::ProblemEdit;
use ftbar_core::ftbar::SweepStrategy;
use ftbar_core::json::JsonObject;
use serde::Value;

use crate::{JobResult, SchedulerKind};

/// Documented error codes: the complete failure vocabulary of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame is not valid JSON, or required fields are missing/typed
    /// wrong.
    BadRequest,
    /// The frame exceeds the configured maximum size.
    TooLarge,
    /// The spec text failed to parse or validate.
    SpecError,
    /// The scheduler rejected the (valid) problem.
    ScheduleError,
    /// The per-request deadline elapsed before a worker finished the job.
    Timeout,
    /// Admission control rejected the request (queue full).
    Overloaded,
    /// This exact request previously panicked a worker and is refused
    /// without being re-run.
    Poisoned,
    /// A worker panicked while scheduling this request.
    InternalPanic,
    /// The daemon is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The edit of a `reschedule` request does not apply to its problem
    /// (unknown names, bad values, or the edited problem is invalid).
    BadEdit,
    /// An on-demand snapshot could not be taken (no snapshot path
    /// configured, or the write failed).
    SnapshotError,
}

impl ErrorCode {
    /// Every code, in declaration order (so `code as usize` indexes it),
    /// which is also the order `status` reports their counters in.
    pub const ALL: [ErrorCode; 11] = [
        ErrorCode::BadRequest,
        ErrorCode::TooLarge,
        ErrorCode::SpecError,
        ErrorCode::ScheduleError,
        ErrorCode::Timeout,
        ErrorCode::Overloaded,
        ErrorCode::Poisoned,
        ErrorCode::InternalPanic,
        ErrorCode::ShuttingDown,
        ErrorCode::BadEdit,
        ErrorCode::SnapshotError,
    ];

    /// The wire name of the code.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::SpecError => "spec_error",
            ErrorCode::ScheduleError => "schedule_error",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Poisoned => "poisoned",
            ErrorCode::InternalPanic => "internal_panic",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::BadEdit => "bad_edit",
            ErrorCode::SnapshotError => "snapshot_error",
        }
    }
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Schedule a problem.
    Schedule(ScheduleRequest),
    /// Edit a previously scheduled problem and schedule the result,
    /// repairing the parent's retained schedule when possible.
    Reschedule(RescheduleRequest),
    /// Report daemon health and counters. The `requests` counters
    /// reconcile: every frame except a successful `status`, `snapshot` or
    /// `shutdown` reply lands in exactly one of `ok` and the error codes;
    /// `degraded` counts a subset of `ok` and `shed` a subset of
    /// `overloaded`.
    Status,
    /// Write a durable state snapshot now.
    Snapshot,
    /// Drain in-flight work and exit.
    Shutdown,
}

/// The `op: "schedule"` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRequest {
    /// Caller-chosen id echoed in the response (JSON string), if any.
    pub id: Option<String>,
    /// Problem spec text.
    pub spec: String,
    /// Scheduler to run.
    pub scheduler: SchedulerKind,
    /// `npf` override applied before scheduling.
    pub npf: Option<u32>,
    /// Sweep strategy; `None` means the scheduler default (adaptive).
    pub strategy: Option<SweepStrategy>,
    /// Per-request deadline override, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Include the full schedule in the response.
    pub include_schedule: bool,
}

impl ScheduleRequest {
    /// The exact raw cache/poison key of this request: every field that
    /// shapes the response, joined with the spec text verbatim.
    pub fn raw_key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}",
            self.scheduler.name(),
            self.strategy.unwrap_or_default().name(),
            self.npf.map_or(-1i64, i64::from),
            u8::from(self.include_schedule),
            self.spec,
        )
    }
}

/// The `op: "reschedule"` request body: the parent problem (same fields
/// as a schedule request) plus the edit to apply to it.
#[derive(Debug, Clone, PartialEq)]
pub struct RescheduleRequest {
    /// The parent request — identifies the problem being edited and how
    /// the answer should be rendered.
    pub base: ScheduleRequest,
    /// The edit to apply.
    pub edit: ProblemEdit,
}

impl RescheduleRequest {
    /// The exact raw cache/poison key: the parent's key, namespaced, plus
    /// the edit's deterministic description.
    pub fn raw_key(&self) -> String {
        format!(
            "reschedule|{}|{}",
            self.edit.describe(),
            self.base.raw_key()
        )
    }
}

/// Renders an edit as the JSON object [`parse_edit`] reads back — the
/// serialization used by snapshot artifact seeds. Round-trip exact:
/// `parse_edit_json(&render_edit(e)) == Ok(e)` for every edit.
pub fn render_edit(e: &ProblemEdit) -> String {
    let units = |units: f64| serde_json::to_string(&units).expect("numbers serialize");
    let mut out = JsonObject::new();
    out.str("kind", e.kind());
    match e {
        ProblemEdit::TweakExec { op, proc, units: u }
        | ProblemEdit::AllowProc { op, proc, units: u } => {
            out.str("op", op).str("proc", proc).raw("units", units(*u))
        }
        ProblemEdit::TweakComm { src, dst, units: u } => {
            out.str("src", src).str("dst", dst).raw("units", units(*u))
        }
        ProblemEdit::ForbidProc { op, proc } => out.str("op", op).str("proc", proc),
        ProblemEdit::ProcDown { proc } => out.str("proc", proc),
        ProblemEdit::ProcUp { proc, units: u } => out.str("proc", proc).raw("units", units(*u)),
        ProblemEdit::LinkDown { link } => out.str("link", link),
        ProblemEdit::LinkUp { link, units: u } => out.str("link", link).raw("units", units(*u)),
        ProblemEdit::AddOp {
            name,
            units: u,
            preds,
            succs,
            comm_units,
        } => out
            .str("name", name)
            .raw("units", units(*u))
            .str_array("preds", preds)
            .str_array("succs", succs)
            .raw("comm_units", units(*comm_units)),
        ProblemEdit::RemoveOp { name } => out.str("name", name),
        ProblemEdit::SetNpf { npf } => out.raw("npf", npf),
    };
    out.finish()
}

/// Parses one request frame. `Err` carries the message for a
/// [`ErrorCode::BadRequest`] response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.as_object().is_none() {
        return Err("request must be a JSON object".into());
    }
    let op = match v.get("op") {
        None => "schedule",
        Some(o) => o.as_str().ok_or("`op` must be a string")?,
    };
    match op {
        "status" => Ok(Request::Status),
        "snapshot" => Ok(Request::Snapshot),
        "shutdown" => Ok(Request::Shutdown),
        "schedule" => Ok(Request::Schedule(parse_schedule_fields(&v)?)),
        "reschedule" => {
            let base = parse_schedule_fields(&v)?;
            let edit = parse_edit(v.get("edit").ok_or("`edit` (object) is required")?)?;
            Ok(Request::Reschedule(RescheduleRequest { base, edit }))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Parses the shared schedule/reschedule fields of a request object.
fn parse_schedule_fields(v: &Value) -> Result<ScheduleRequest, String> {
    {
        let id = match v.get("id") {
            None => None,
            Some(i) => Some(
                i.as_str()
                    .map(str::to_owned)
                    .ok_or("`id` must be a string")?,
            ),
        };
        let spec = v
            .get("spec")
            .and_then(Value::as_str)
            .ok_or("`spec` (string) is required")?
            .to_owned();
        let scheduler = match v.get("scheduler") {
            None => SchedulerKind::Ftbar,
            Some(s) => match s.as_str() {
                Some("ftbar") => SchedulerKind::Ftbar,
                Some("hbp") => SchedulerKind::Hbp,
                _ => return Err("`scheduler` must be \"ftbar\" or \"hbp\"".into()),
            },
        };
        let npf = match v.get("npf") {
            None => None,
            Some(n) => Some(parse_u32(n).ok_or("`npf` must be a non-negative integer")?),
        };
        let strategy = match v.get("strategy") {
            None => None,
            Some(s) => Some(
                s.as_str()
                    .and_then(SweepStrategy::from_name)
                    .ok_or("`strategy` must be adaptive|incremental|naive|clustered")?,
            ),
        };
        let timeout_ms = match v.get("timeout_ms") {
            None => None,
            Some(t) => Some(parse_u64(t).ok_or("`timeout_ms` must be a non-negative integer")?),
        };
        let include_schedule = match v.get("include_schedule") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("`include_schedule` must be a boolean".into()),
        };
        Ok(ScheduleRequest {
            id,
            spec,
            scheduler,
            npf,
            strategy,
            timeout_ms,
            include_schedule,
        })
    }
}

/// Parses a standalone `edit` object from JSON text — the CLI front door
/// to [`parse_edit`] (the daemon parses edits embedded in request frames).
///
/// # Errors
///
/// A human-readable message when the text is not valid JSON or not a
/// well-formed edit object.
pub fn parse_edit_json(text: &str) -> Result<ProblemEdit, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    parse_edit(&v)
}

/// Parses the `edit` object of a `reschedule` request into a
/// [`ProblemEdit`]. `Err` carries the message for a
/// [`ErrorCode::BadRequest`] response (the edit is structurally
/// malformed; edits that are well-formed but do not *apply* answer
/// [`ErrorCode::BadEdit`] later).
pub fn parse_edit(v: &Value) -> Result<ProblemEdit, String> {
    if v.as_object().is_none() {
        return Err("`edit` must be a JSON object".into());
    }
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("`edit.kind` (string) is required")?;
    let str_field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("`edit.{name}` (string) is required"))
    };
    let units_field = |name: &str| -> Result<f64, String> {
        match v.get(name) {
            Some(Value::Number(n)) => Ok(n.as_f64()),
            _ => Err(format!("`edit.{name}` (number) is required")),
        }
    };
    let names_field = |name: &str| -> Result<Vec<String>, String> {
        match v.get(name) {
            None => Ok(Vec::new()),
            Some(Value::Array(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_owned)
                        .ok_or(format!("`edit.{name}` must be an array of strings"))
                })
                .collect(),
            Some(_) => Err(format!("`edit.{name}` must be an array of strings")),
        }
    };
    match kind {
        "tweak_exec" => Ok(ProblemEdit::TweakExec {
            op: str_field("op")?,
            proc: str_field("proc")?,
            units: units_field("units")?,
        }),
        "tweak_comm" => Ok(ProblemEdit::TweakComm {
            src: str_field("src")?,
            dst: str_field("dst")?,
            units: units_field("units")?,
        }),
        "allow_proc" => Ok(ProblemEdit::AllowProc {
            op: str_field("op")?,
            proc: str_field("proc")?,
            units: units_field("units")?,
        }),
        "forbid_proc" => Ok(ProblemEdit::ForbidProc {
            op: str_field("op")?,
            proc: str_field("proc")?,
        }),
        "proc_down" => Ok(ProblemEdit::ProcDown {
            proc: str_field("proc")?,
        }),
        "proc_up" => Ok(ProblemEdit::ProcUp {
            proc: str_field("proc")?,
            units: units_field("units")?,
        }),
        "link_down" => Ok(ProblemEdit::LinkDown {
            link: str_field("link")?,
        }),
        "link_up" => Ok(ProblemEdit::LinkUp {
            link: str_field("link")?,
            units: units_field("units")?,
        }),
        "add_op" => Ok(ProblemEdit::AddOp {
            name: str_field("name")?,
            units: units_field("units")?,
            preds: names_field("preds")?,
            succs: names_field("succs")?,
            comm_units: units_field("comm_units")?,
        }),
        "remove_op" => Ok(ProblemEdit::RemoveOp {
            name: str_field("name")?,
        }),
        "set_npf" => {
            let npf = v
                .get("npf")
                .and_then(parse_u32)
                .ok_or("`edit.npf` must be a non-negative integer")?;
            Ok(ProblemEdit::SetNpf { npf })
        }
        other => Err(format!("unknown edit kind `{other}`")),
    }
}

fn parse_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(serde::Number::UInt(u)) => Some(*u),
        _ => None,
    }
}

fn parse_u32(v: &Value) -> Option<u32> {
    parse_u64(v).and_then(|u| u32::try_from(u).ok())
}

/// Renders the success response for a scheduled job. Deterministic: the
/// byte-identity contract between cached and direct responses rests on
/// this function.
pub fn render_ok(id: Option<&str>, r: &JobResult, degraded: bool) -> String {
    let mut out = response(id);
    r.write_json(&mut out, degraded);
    out.finish()
}

/// Renders an error response with a documented code.
pub fn render_error(id: Option<&str>, code: ErrorCode, message: &str) -> String {
    response(id)
        .str("status", "error")
        .str("code", code.name())
        .str("message", message)
        .finish()
}

/// Splices `id` into a response body rendered without one (cached bodies
/// are id-less so distinct callers can share them). With `id: None` this
/// is the identity, so cached and directly rendered responses are
/// byte-identical.
pub fn with_id(id: Option<&str>, body: &str) -> String {
    match id {
        None => body.to_owned(),
        Some(id) => JsonObject::new().str("id", id).finish_with(body),
    }
}

/// A response object, opened with the caller's `id` when there is one.
fn response(id: Option<&str>) -> JsonObject {
    let mut out = JsonObject::new();
    if let Some(id) = id {
        out.str("id", id);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_requests() {
        let r = parse_request(r#"{"spec": "x"}"#).unwrap();
        let Request::Schedule(s) = r else {
            panic!("expected schedule")
        };
        assert_eq!(s.scheduler, SchedulerKind::Ftbar);
        assert_eq!(s.npf, None);
        assert!(!s.include_schedule);

        let r = parse_request(
            r#"{"op": "schedule", "id": "a", "spec": "x", "scheduler": "hbp",
                "npf": 2, "strategy": "naive", "timeout_ms": 50,
                "include_schedule": true}"#,
        )
        .unwrap();
        let Request::Schedule(s) = r else {
            panic!("expected schedule")
        };
        assert_eq!(s.id.as_deref(), Some("a"));
        assert_eq!(s.scheduler, SchedulerKind::Hbp);
        assert_eq!(s.npf, Some(2));
        assert_eq!(s.strategy, Some(SweepStrategy::Naive));
        assert_eq!(s.timeout_ms, Some(50));
        assert!(s.include_schedule);

        assert_eq!(
            parse_request(r#"{"op": "status"}"#).unwrap(),
            Request::Status
        );
        assert_eq!(
            parse_request(r#"{"op": "snapshot"}"#).unwrap(),
            Request::Snapshot
        );
        assert_eq!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in SweepStrategy::ALL {
            let line = format!(r#"{{"spec": "x", "strategy": "{}"}}"#, s.name());
            let Ok(Request::Schedule(req)) = parse_request(&line) else {
                panic!("expected schedule for {line}")
            };
            assert_eq!(req.strategy, Some(s));
            assert!(req.raw_key().starts_with(&format!("ftbar|{}|", s.name())));
        }
    }

    #[test]
    fn error_codes_are_indexed_by_declaration_order() {
        for (i, code) in ErrorCode::ALL.into_iter().enumerate() {
            assert_eq!(code as usize, i, "{}", code.name());
        }
    }

    #[test]
    fn render_edit_round_trips_every_kind() {
        let edits = [
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
            ProblemEdit::LinkDown { link: "L0".into() },
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
        ];
        for edit in edits {
            let json = render_edit(&edit);
            assert_eq!(
                parse_edit_json(&json).as_ref(),
                Ok(&edit),
                "round-trip failed for {json}"
            );
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            r#"{"op": "frobnicate"}"#,
            r#"{"op": "schedule"}"#,
            r#"{"spec": 7}"#,
            r#"{"spec": "x", "scheduler": "lpt"}"#,
            r#"{"spec": "x", "npf": -1}"#,
            r#"{"spec": "x", "npf": 1.5}"#,
            r#"{"spec": "x", "strategy": "magic"}"#,
            r#"{"spec": "x", "timeout_ms": "soon"}"#,
            r#"{"spec": "x", "include_schedule": "yes"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "expected Err for {bad:?}");
        }
    }

    #[test]
    fn raw_key_separates_response_shaping_fields() {
        let base = ScheduleRequest {
            id: None,
            spec: "s".into(),
            scheduler: SchedulerKind::Ftbar,
            npf: None,
            strategy: None,
            timeout_ms: None,
            include_schedule: false,
        };
        let mut keys = vec![base.raw_key()];
        let mut variant = base.clone();
        variant.scheduler = SchedulerKind::Hbp;
        keys.push(variant.raw_key());
        let mut variant = base.clone();
        variant.npf = Some(0);
        keys.push(variant.raw_key());
        let mut variant = base.clone();
        variant.strategy = Some(SweepStrategy::Clustered);
        keys.push(variant.raw_key());
        let mut variant = base.clone();
        variant.include_schedule = true;
        keys.push(variant.raw_key());
        // `id` and `timeout_ms` do NOT shape the cached body.
        let mut variant = base.clone();
        variant.id = Some("x".into());
        variant.timeout_ms = Some(9);
        assert_eq!(variant.raw_key(), base.raw_key());
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 5, "every shaping field must separate keys");
    }

    #[test]
    fn parses_reschedule_requests() {
        let r = parse_request(
            r#"{"op": "reschedule", "id": "e1", "spec": "x",
                "edit": {"kind": "tweak_exec", "op": "A", "proc": "P1", "units": 2.5}}"#,
        )
        .unwrap();
        let Request::Reschedule(r) = r else {
            panic!("expected reschedule")
        };
        assert_eq!(r.base.id.as_deref(), Some("e1"));
        assert_eq!(
            r.edit,
            ProblemEdit::TweakExec {
                op: "A".into(),
                proc: "P1".into(),
                units: 2.5
            }
        );

        let r = parse_request(
            r#"{"op": "reschedule", "spec": "x",
                "edit": {"kind": "add_op", "name": "N", "units": 1,
                         "preds": ["A"], "succs": [], "comm_units": 0.5}}"#,
        )
        .unwrap();
        let Request::Reschedule(r) = r else {
            panic!("expected reschedule")
        };
        assert_eq!(r.edit.kind(), "add_op");

        let r = parse_request(
            r#"{"op": "reschedule", "spec": "x", "edit": {"kind": "set_npf", "npf": 2}}"#,
        )
        .unwrap();
        assert!(matches!(
            r,
            Request::Reschedule(RescheduleRequest {
                edit: ProblemEdit::SetNpf { npf: 2 },
                ..
            })
        ));
    }

    #[test]
    fn rejects_malformed_edits() {
        for bad in [
            r#"{"op": "reschedule", "spec": "x"}"#,
            r#"{"op": "reschedule", "spec": "x", "edit": 7}"#,
            r#"{"op": "reschedule", "spec": "x", "edit": {}}"#,
            r#"{"op": "reschedule", "spec": "x", "edit": {"kind": "frobnicate"}}"#,
            r#"{"op": "reschedule", "spec": "x", "edit": {"kind": "tweak_exec"}}"#,
            r#"{"op": "reschedule", "spec": "x",
                "edit": {"kind": "tweak_exec", "op": "A", "proc": "P1", "units": "fast"}}"#,
            r#"{"op": "reschedule", "spec": "x",
                "edit": {"kind": "add_op", "name": "N", "units": 1,
                         "preds": [3], "comm_units": 1}}"#,
            r#"{"op": "reschedule", "spec": "x", "edit": {"kind": "set_npf", "npf": -1}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "expected Err for {bad:?}");
        }
    }

    #[test]
    fn reschedule_raw_key_separates_edits_and_parents() {
        let base = ScheduleRequest {
            id: None,
            spec: "s".into(),
            scheduler: SchedulerKind::Ftbar,
            npf: None,
            strategy: None,
            timeout_ms: None,
            include_schedule: false,
        };
        let e1 = RescheduleRequest {
            base: base.clone(),
            edit: ProblemEdit::SetNpf { npf: 1 },
        };
        let e2 = RescheduleRequest {
            base: base.clone(),
            edit: ProblemEdit::SetNpf { npf: 2 },
        };
        let mut other = base.clone();
        other.spec = "t".into();
        let e3 = RescheduleRequest {
            base: other,
            edit: ProblemEdit::SetNpf { npf: 1 },
        };
        assert_ne!(e1.raw_key(), e2.raw_key());
        assert_ne!(e1.raw_key(), e3.raw_key());
        // Never collides with a plain schedule request's key space.
        assert!(e1.raw_key().starts_with("reschedule|"));
    }

    #[test]
    fn error_rendering_is_stable() {
        assert_eq!(
            render_error(Some("r1"), ErrorCode::Timeout, "deadline elapsed"),
            r#"{"id": "r1", "status": "error", "code": "timeout", "message": "deadline elapsed"}"#
        );
        assert_eq!(
            render_error(None, ErrorCode::BadRequest, "nope"),
            r#"{"status": "error", "code": "bad_request", "message": "nope"}"#
        );
    }
}

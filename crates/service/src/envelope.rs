//! The v2 error/response envelope: one JSON shape for every error body
//! on every endpoint.
//!
//! ```json
//! {"code": "deadline_exceeded", "message": "...",
//!  "retry_after": 2, "deadline_remaining_ms": 0, "partial": true}
//! ```
//!
//! `code` and `message` are always present; `retry_after` (seconds,
//! mirrored in a `Retry-After` header by the transport),
//! `deadline_remaining_ms` and `partial` appear only when meaningful.
//! `code` is drawn from the closed set in [`STABLE_CODES`] — clients
//! (and `loadgen --strict`) may dispatch on it; the human `message` may
//! change between releases, the codes may not.

use tgp_graph::json::Value;

/// Every stable error code any endpoint can emit, sorted. New codes are
/// an API change: add them here, to the endpoint table below, and to
/// docs/SERVICE.md (`tgp endpoints --check` pins the table).
pub const STABLE_CODES: &[&str] = &[
    "bad_request",
    "body_too_large",
    "deadline_exceeded",
    "infeasible",
    "invalid_edit",
    "invalid_field",
    "invalid_graph",
    "method_not_allowed",
    "missing_field",
    "not_found",
    "overloaded",
    "session_budget_exceeded",
    "session_not_found",
    "shed_deadline",
    "shed_expensive",
    "too_expensive",
    "unknown_field",
    "unknown_objective",
    "version_conflict",
    "wrong_graph_kind",
];

/// Whether `code` is one of the stable envelope codes.
pub fn is_stable_code(code: &str) -> bool {
    STABLE_CODES.binary_search(&code).is_ok()
}

/// One endpoint row for `tgp endpoints` and docs/SERVICE.md: method,
/// path, summary, and the stable error codes the endpoint can emit
/// beyond the transport-level set.
///
/// Every endpoint can additionally emit the transport codes
/// `bad_request`, `body_too_large`, `overloaded` and
/// `method_not_allowed`/`not_found`, so those are not repeated per row.
pub const ENDPOINTS: &[(&str, &str, &str, &str)] = &[
    (
        "POST",
        "/v1/partition",
        "run any registered objective (single request or batch)",
        "unknown_objective, missing_field, invalid_field, unknown_field, wrong_graph_kind, \
         too_expensive, infeasible, shed_expensive, shed_deadline, deadline_exceeded",
    ),
    (
        "POST",
        "/v1/simulate",
        "partition a chain and simulate the pipeline",
        "missing_field, invalid_field, too_expensive, infeasible, shed_expensive, \
         deadline_exceeded",
    ),
    (
        "POST",
        "/v1/graphs",
        "register a resident session graph",
        "missing_field, invalid_field, invalid_graph, session_budget_exceeded",
    ),
    ("GET", "/v1/graphs", "list resident graphs", "-"),
    (
        "GET",
        "/v1/graphs/<id>",
        "resident graph metadata (version, sizes)",
        "session_not_found",
    ),
    (
        "PATCH",
        "/v1/graphs/<id>",
        "apply an atomic edit batch under a version check",
        "missing_field, invalid_field, invalid_edit, version_conflict, session_not_found",
    ),
    (
        "DELETE",
        "/v1/graphs/<id>",
        "drop a resident graph",
        "session_not_found",
    ),
    (
        "POST",
        "/v1/graphs/<id>/partition",
        "solve against the resident graph (delta responses)",
        "unknown_objective, missing_field, invalid_field, session_not_found, infeasible, \
         deadline_exceeded",
    ),
    ("GET", "/healthz", "liveness probe", "-"),
    ("GET", "/metrics", "Prometheus text exposition", "-"),
    (
        "GET",
        "/debug/trace/<id>",
        "one completed request trace (requires --debug-endpoints)",
        "bad_request, not_found",
    ),
    (
        "GET",
        "/debug/slow",
        "slowest retained traces (requires --debug-endpoints)",
        "not_found",
    ),
    (
        "GET",
        "/debug/events",
        "recent journal events (requires --debug-endpoints)",
        "not_found",
    ),
];

/// Renders a v2 envelope as a compact JSON object (no trailing
/// newline). Field order is fixed: `code`, `message`, then the
/// optional fields — byte-stable for tests and caches.
pub fn envelope_value(
    code: &str,
    message: &str,
    retry_after: Option<u64>,
    deadline_remaining_ms: Option<u64>,
    partial: bool,
) -> Value {
    let mut fields: Vec<(String, Value)> = vec![
        ("code".to_string(), Value::from(code)),
        ("message".to_string(), Value::from(message)),
    ];
    if let Some(secs) = retry_after {
        fields.push(("retry_after".to_string(), Value::from(secs)));
    }
    if let Some(ms) = deadline_remaining_ms {
        fields.push(("deadline_remaining_ms".to_string(), Value::from(ms)));
    }
    if partial {
        fields.push(("partial".to_string(), Value::Bool(true)));
    }
    Value::Object(fields)
}

/// [`envelope_value`] rendered as a newline-terminated body string.
pub fn envelope_body(
    code: &str,
    message: &str,
    retry_after: Option<u64>,
    deadline_remaining_ms: Option<u64>,
    partial: bool,
) -> String {
    format!(
        "{}\n",
        envelope_value(code, message, retry_after, deadline_remaining_ms, partial)
    )
}

/// Parses a response body and checks it is a well-formed v2 envelope
/// with a stable code; returns the code on success. Used by tests and
/// by `loadgen --strict`.
pub fn parse_envelope(body: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = Value::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
    let code = value
        .get("code")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("envelope has no string \"code\": {text}"))?;
    if !is_stable_code(code) {
        return Err(format!("code {code:?} is not a stable envelope code"));
    }
    value
        .get("message")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("envelope has no string \"message\": {text}"))?;
    Ok(code.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_codes_are_sorted_and_unique() {
        let mut sorted = STABLE_CODES.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, STABLE_CODES, "STABLE_CODES must be sorted+unique");
    }

    #[test]
    fn envelope_field_order_is_stable() {
        let body = envelope_body("deadline_exceeded", "too late", Some(2), Some(0), true);
        assert_eq!(
            body,
            "{\"code\":\"deadline_exceeded\",\"message\":\"too late\",\
             \"retry_after\":2,\"deadline_remaining_ms\":0,\"partial\":true}\n"
        );
        let minimal = envelope_body("bad_request", "nope", None, None, false);
        assert_eq!(minimal, "{\"code\":\"bad_request\",\"message\":\"nope\"}\n");
    }

    #[test]
    fn parse_envelope_accepts_stable_and_rejects_unknown() {
        let ok = envelope_body("overloaded", "busy", Some(1), None, false);
        assert_eq!(parse_envelope(ok.as_bytes()).unwrap(), "overloaded");
        let unknown = envelope_body("made_up_code", "?", None, None, false);
        assert!(parse_envelope(unknown.as_bytes()).is_err());
        assert!(parse_envelope(b"{\"error\":\"v1 shape\"}").is_err());
        assert!(parse_envelope(b"not json").is_err());
    }

    #[test]
    fn every_endpoint_error_list_uses_stable_codes() {
        for (_, path, _, errors) in ENDPOINTS {
            if *errors == "-" {
                continue;
            }
            for code in errors.split(',').map(str::trim) {
                assert!(is_stable_code(code), "{path}: {code:?} not in STABLE_CODES");
            }
        }
    }

    #[test]
    fn solver_error_codes_are_all_stable() {
        use tgp_solvers::SolveError;
        let samples = [
            SolveError::DeadlineExceeded,
            SolveError::Infeasible {
                message: String::new(),
            },
        ];
        for e in samples {
            assert!(is_stable_code(e.code()), "{}", e.code());
        }
    }
}

//! A structured JSONL event log on stderr.
//!
//! One JSON object per line — libraries call [`emit`] and pay one relaxed
//! load while the log is off (the default); a binary that wants the lines
//! calls [`log_to_stderr`]. The daemons route lifecycle events (startup,
//! connection accepted, tenant open/close) and violation reports here so
//! operators get machine-parseable logs instead of ad-hoc `eprintln!`s.
//! Where the lines go from stderr, and when a file of them rotates, is the
//! process supervisor's business.
//!
//! Every line carries `ts_micros` (wall clock, microseconds since the
//! Unix epoch) and `event` (the kind), then the caller's fields in order:
//!
//! ```json
//! {"ts_micros":1754650000000000,"event":"startup","role":"mtc-service","addr":"127.0.0.1:7777"}
//! ```

pub use serde::JsonValue;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{SystemTime, UNIX_EPOCH};

static TO_STDERR: AtomicBool = AtomicBool::new(false);

/// Routes events to stderr (one JSON object per line).
pub fn log_to_stderr() {
    TO_STDERR.store(true, Relaxed);
}

/// Stops routing events (the default state).
pub fn disable() {
    TO_STDERR.store(false, Relaxed);
}

/// Emits one event line. A no-op while the log is off. The line goes out
/// in one `write_all` on the locked stderr, so concurrent events never
/// interleave within a line.
pub fn emit(kind: &str, fields: &[(&str, JsonValue)]) {
    if !TO_STDERR.load(Relaxed) {
        return;
    }
    let ts = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let _ = std::io::stderr().write_all(render(ts, kind, fields).as_bytes());
}

/// One event as its log line, newline included.
fn render(ts: u64, kind: &str, fields: &[(&str, JsonValue)]) -> String {
    let mut entries = Vec::with_capacity(fields.len() + 2);
    entries.push(("ts_micros".to_string(), JsonValue::U64(ts)));
    entries.push(("event".to_string(), JsonValue::Str(kind.to_string())));
    for (k, v) in fields {
        entries.push((k.to_string(), v.clone()));
    }
    let mut line = String::new();
    JsonValue::Object(entries).render(&mut line);
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_event_renders_as_one_json_line() {
        let line = render(
            1_754_650_000_000_000,
            "unit-test",
            &[
                ("tenant", JsonValue::Str("t0".into())),
                ("checked", JsonValue::U64(42)),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_micros\":1754650000000000,\"event\":\"unit-test\",\
             \"tenant\":\"t0\",\"checked\":42}\n"
        );
    }
}

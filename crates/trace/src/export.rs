//! Chrome-trace/Perfetto JSON export and validation.
//!
//! The export format is the Chrome trace-event JSON that Perfetto's
//! legacy importer reads: an object with a `traceEvents` array whose
//! entries carry `ph` (`"B"`/`"E"` span pairs, `"i"` instants, `"C"`
//! counters, `"M"` metadata), `ts` in microseconds, and `pid`/`tid`
//! selecting the track. [`process_label`] and the exporter's
//! thread-name metadata decode the [`Track`] encodings so the Perfetto
//! UI shows e.g. `dram / fetch bank 3` instead of raw ids.

use crate::event::{TraceEvent, Track, PID_CORE, PID_DRAM, PID_SERVE};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};

/// Human label for a layer pid (`"dram"` / `"core"` / `"serve"`).
#[must_use]
pub fn process_label(pid: u32) -> &'static str {
    match pid {
        PID_DRAM => "dram",
        PID_CORE => "core",
        PID_SERVE => "serve",
        _ => "other",
    }
}

/// Human label for a track within its layer.
fn thread_label(track: Track) -> String {
    match track.pid {
        PID_DRAM => format!("fetch bank {}", track.tid & 0x00FF_FFFF),
        PID_CORE => {
            if track.tid == 0 {
                "launch".to_string()
            } else {
                format!("channel {}", track.tid - 1)
            }
        }
        PID_SERVE => match track.tid {
            0 => "requests".to_string(),
            1 => "planner".to_string(),
            2 => "engine".to_string(),
            t => format!("serve {t}"),
        },
        _ => format!("tid {}", track.tid),
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `ts` is microseconds in the Chrome trace format; events carry ns.
fn ts_us(t_ns: f64) -> Value {
    Value::Float(t_ns / 1000.0)
}

fn track_fields(track: Track) -> [(&'static str, Value); 2] {
    [
        ("pid", Value::Int(i128::from(track.pid))),
        ("tid", Value::Int(i128::from(track.tid))),
    ]
}

/// Exports recorded events as Chrome-trace/Perfetto JSON.
///
/// The output is always well-formed even when the recording ring
/// evicted events mid-span: orphaned `End`s (whose `Begin` was evicted)
/// are dropped, and any still-open `Begin` gets a synthetic `End` at
/// the latest timestamp seen on its track. Metadata events name every
/// process (layer) and thread (lane) present.
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // Per-track open-span depth (with last timestamp) for balancing.
    let mut depth: BTreeMap<Track, (usize, f64)> = BTreeMap::new();
    let mut out: Vec<Value> = Vec::new();

    // Metadata: name processes and threads up front.
    let mut pids: Vec<u32> = events.iter().map(|e| e.track().pid).collect();
    pids.sort_unstable();
    pids.dedup();
    for pid in &pids {
        out.push(obj(vec![
            ("name", Value::Str("process_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::Int(i128::from(*pid))),
            ("tid", Value::Int(0)),
            (
                "args",
                obj(vec![("name", Value::Str(process_label(*pid).to_string()))]),
            ),
        ]));
    }
    let mut tracks: Vec<Track> = events.iter().map(TraceEvent::track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for track in &tracks {
        out.push(obj(vec![
            ("name", Value::Str("thread_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::Int(i128::from(track.pid))),
            ("tid", Value::Int(i128::from(track.tid))),
            (
                "args",
                obj(vec![("name", Value::Str(thread_label(*track)))]),
            ),
        ]));
    }

    for ev in events {
        let track = ev.track();
        let entry = depth.entry(track).or_insert((0, f64::NEG_INFINITY));
        entry.1 = entry.1.max(ev.t_ns());
        match *ev {
            TraceEvent::Begin {
                t_ns, name, cat, ..
            } => {
                entry.0 += 1;
                let mut fields = vec![
                    ("name", Value::Str(name.to_string())),
                    ("cat", Value::Str(cat.to_string())),
                    ("ph", Value::Str("B".to_string())),
                    ("ts", ts_us(t_ns)),
                ];
                fields.extend(track_fields(track));
                out.push(obj(fields));
            }
            TraceEvent::End { t_ns, .. } => {
                if entry.0 == 0 {
                    continue; // orphaned by ring eviction — drop
                }
                entry.0 -= 1;
                let mut fields = vec![("ph", Value::Str("E".to_string())), ("ts", ts_us(t_ns))];
                fields.extend(track_fields(track));
                out.push(obj(fields));
            }
            TraceEvent::Instant {
                t_ns, name, cat, ..
            } => {
                let mut fields = vec![
                    ("name", Value::Str(name.to_string())),
                    ("cat", Value::Str(cat.to_string())),
                    ("ph", Value::Str("i".to_string())),
                    ("s", Value::Str("t".to_string())),
                    ("ts", ts_us(t_ns)),
                ];
                fields.extend(track_fields(track));
                out.push(obj(fields));
            }
            TraceEvent::Counter {
                t_ns,
                name,
                cat,
                value,
                ..
            } => {
                let mut fields = vec![
                    ("name", Value::Str(name.to_string())),
                    ("cat", Value::Str(cat.to_string())),
                    ("ph", Value::Str("C".to_string())),
                    ("ts", ts_us(t_ns)),
                ];
                fields.extend(track_fields(track));
                fields.push(("args", obj(vec![(name, Value::Float(value))])));
                out.push(obj(fields));
            }
        }
    }

    // Close any spans left open (their End was evicted or never
    // recorded) at the last timestamp seen on the track.
    for (track, (open, last_t)) in &depth {
        for _ in 0..*open {
            let mut fields = vec![("ph", Value::Str("E".to_string())), ("ts", ts_us(*last_t))];
            fields.extend(track_fields(*track));
            out.push(obj(fields));
        }
    }

    let top = obj(vec![
        ("traceEvents", Value::Array(out)),
        ("displayTimeUnit", Value::Str("ns".to_string())),
    ]);
    serde_json::to_string(&top).expect("chrome trace serialises")
}

/// What [`validate_chrome_trace`] found in a valid trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Non-metadata events in `traceEvents`.
    pub events: usize,
    /// Balanced begin/end span pairs.
    pub spans: usize,
    /// Distinct `(pid, tid)` tracks carrying events.
    pub tracks: usize,
    /// Distinct categories seen, sorted (e.g. `["core", "dram", "serve"]`).
    pub cats: Vec<String>,
}

fn field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The first key that `fields` holds twice. [`field`] reads the first
/// of the two, other JSON readers the last, so the validator rejects the
/// object.
fn repeated_key(fields: &[(String, Value)]) -> Option<&str> {
    (1..fields.len())
        .find(|&i| fields[..i].iter().any(|(k, _)| *k == fields[i].0))
        .map(|i| fields[i].0.as_str())
}

fn int_field(fields: &[(String, Value)], key: &str) -> Option<i128> {
    match field(fields, key)? {
        Value::Int(v) => Some(*v),
        _ => None,
    }
}

fn str_field<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    match field(fields, key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn num_field(fields: &[(String, Value)], key: &str) -> Option<f64> {
    match field(fields, key)? {
        Value::Float(v) => Some(*v),
        Value::Int(v) => Some(*v as f64),
        _ => None,
    }
}

/// A span still open on a track while [`validate_chrome_trace`] walks
/// the events.
struct OpenSpan {
    /// The span's `ts`.
    begin: f64,
    /// The earliest the span may end: its `begin`, or the latest end of
    /// the spans already closed inside it.
    min_end: f64,
}

/// Parses and validates a Chrome-trace JSON string.
///
/// Checks: the document parses, has a `traceEvents` array, no event
/// (nor the top-level object) repeats a key, every event carries the
/// fields its phase requires (a finite `ts` and integer
/// `pid`/`tid` everywhere, `name`+`cat` on begins/instants/counters, an
/// `args` object on counters), and begin/end pairs balance and nest in
/// time on every `(pid, tid)` track: an `E` comes no earlier than its
/// `B`, and a span starts and ends within the span enclosing it.
/// Sibling spans may overlap (the serving runtime's rejected
/// power-governor trials leave overlapping fetch spans). This is what
/// the CI smoke job and `c2m trace --check` run.
///
/// # Errors
///
/// Returns a description of the first structural problem found.
pub fn validate_chrome_trace(json: &str) -> Result<TraceCheck, String> {
    let doc = serde_json::from_str(json).map_err(|e| format!("trace does not parse: {e:?}"))?;
    let Value::Object(top) = doc else {
        return Err("top level is not an object".to_string());
    };
    if let Some(key) = repeated_key(&top) {
        return Err(format!("top level repeats the key {key:?}"));
    }
    let Some(Value::Array(events)) = field(&top, "traceEvents") else {
        return Err("missing traceEvents array".to_string());
    };

    let mut open: BTreeMap<(i128, i128), Vec<OpenSpan>> = BTreeMap::new();
    let mut track_set: BTreeSet<(i128, i128)> = BTreeSet::new();
    let mut cats: Vec<String> = Vec::new();
    let mut counted = 0usize;
    let mut spans = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let Value::Object(fields) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        if let Some(key) = repeated_key(fields) {
            return Err(format!("event {i} repeats the key {key:?}"));
        }
        let Some(ph) = str_field(fields, "ph") else {
            return Err(format!("event {i} has no ph"));
        };
        let pid =
            int_field(fields, "pid").ok_or_else(|| format!("event {i} has no integer pid"))?;
        let tid =
            int_field(fields, "tid").ok_or_else(|| format!("event {i} has no integer tid"))?;
        if ph == "M" {
            continue; // metadata: no ts, not a track event
        }
        let Some(ts) = num_field(fields, "ts") else {
            return Err(format!("event {i} (ph {ph}) has no numeric ts"));
        };
        if !ts.is_finite() {
            return Err(format!("event {i} (ph {ph}) has a non-finite ts"));
        }
        counted += 1;
        track_set.insert((pid, tid));
        if let Some(cat) = str_field(fields, "cat") {
            if !cats.iter().any(|c| c == cat) {
                cats.push(cat.to_string());
            }
        }
        match ph {
            "B" => {
                if str_field(fields, "name").is_none() || str_field(fields, "cat").is_none() {
                    return Err(format!("B event {i} missing name/cat"));
                }
                let stack = open.entry((pid, tid)).or_default();
                if let Some(outer) = stack.last() {
                    if ts < outer.begin {
                        return Err(format!(
                            "B event {i} on track ({pid},{tid}) starts at {ts}, before its \
                             enclosing span begins at {}",
                            outer.begin
                        ));
                    }
                }
                stack.push(OpenSpan {
                    begin: ts,
                    min_end: ts,
                });
            }
            "E" => {
                let stack = open.entry((pid, tid)).or_default();
                let Some(span) = stack.pop() else {
                    return Err(format!(
                        "E event {i} on track ({pid},{tid}) has no open span"
                    ));
                };
                if ts < span.min_end {
                    return Err(format!(
                        "E event {i} on track ({pid},{tid}) at {ts} closes a span that \
                         began at {} before it or a span inside it ends at {}",
                        span.begin, span.min_end
                    ));
                }
                if let Some(outer) = stack.last_mut() {
                    outer.min_end = outer.min_end.max(ts);
                }
                spans += 1;
            }
            "i" | "I" => {
                if str_field(fields, "name").is_none() {
                    return Err(format!("instant event {i} missing name"));
                }
            }
            "C" => {
                if str_field(fields, "name").is_none() {
                    return Err(format!("C event {i} missing name"));
                }
                match field(fields, "args") {
                    Some(Value::Object(_)) => {}
                    _ => return Err(format!("C event {i} missing args object")),
                }
            }
            other => return Err(format!("event {i} has unknown ph {other:?}")),
        }
    }

    for ((pid, tid), stack) in &open {
        if !stack.is_empty() {
            return Err(format!(
                "track ({pid},{tid}) ends with {} unclosed span(s)",
                stack.len()
            ));
        }
    }

    cats.sort();
    Ok(TraceCheck {
        events: counted,
        spans,
        tracks: track_set.len(),
        cats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{RecordingSink, TraceSink};

    fn sample_sink() -> RecordingSink {
        let sink = RecordingSink::new(64);
        sink.span(Track::dram_fetch(0), "fetch_miss", "dram", 0.0, 10.0);
        sink.span(Track::dram_fetch(1), "fetch_hit", "dram", 4.0, 6.0);
        sink.span(Track::core(0), "launch", "core", 0.0, 100.0);
        sink.record(TraceEvent::Counter {
            t_ns: 50.0,
            name: "queue_depth",
            cat: "serve",
            track: Track::serve(0),
            value: 3.0,
        });
        sink
    }

    #[test]
    fn export_round_trips_through_validator() {
        let json = sample_sink().chrome_trace_json();
        let check = validate_chrome_trace(&json).expect("exported trace validates");
        assert_eq!(check.spans, 3);
        assert_eq!(check.cats, vec!["core", "dram", "serve"]);
        assert!(check.tracks >= 4);
        assert!(check.events >= 6);
    }

    #[test]
    fn orphan_end_is_dropped_and_open_begin_is_closed() {
        let events = vec![
            // Orphan end: its begin was evicted from the ring.
            TraceEvent::End {
                t_ns: 1.0,
                track: Track::core(0),
            },
            TraceEvent::Begin {
                t_ns: 2.0,
                name: "launch",
                cat: "core",
                track: Track::core(0),
            },
            // No matching end — the exporter must synthesise one.
            TraceEvent::Instant {
                t_ns: 9.0,
                name: "tick",
                cat: "core",
                track: Track::core(0),
            },
        ];
        let json = chrome_trace_json(&events);
        let check = validate_chrome_trace(&json).expect("balanced after repair");
        assert_eq!(check.spans, 1);
    }

    #[test]
    fn validator_rejects_unbalanced_trace() {
        let json = r#"{"traceEvents":[
            {"name":"x","cat":"core","ph":"B","ts":0.0,"pid":2,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("unclosed"), "err = {err}");
    }

    #[test]
    fn validator_checks_spans_nest_in_time() {
        // `tests/cli.rs` covers a non-finite ts, an E before its B and
        // an inner span that ends after its outer one.
        let starts_early = r#"{"traceEvents":[
            {"name":"outer","cat":"core","ph":"B","ts":5,"pid":2,"tid":0},
            {"name":"inner","cat":"core","ph":"B","ts":2,"pid":2,"tid":0},
            {"ph":"E","ts":6,"pid":2,"tid":0},
            {"ph":"E","ts":8,"pid":2,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(starts_early).unwrap_err();
        assert!(err.contains("before its enclosing span"), "err = {err}");
        // Overlapping siblings on one track stay valid.
        let siblings = r#"{"traceEvents":[
            {"name":"a","cat":"dram","ph":"B","ts":0,"pid":1,"tid":0},
            {"ph":"E","ts":10,"pid":1,"tid":0},
            {"name":"b","cat":"dram","ph":"B","ts":4,"pid":1,"tid":0},
            {"ph":"E","ts":6,"pid":1,"tid":0}
        ]}"#;
        assert_eq!(validate_chrome_trace(siblings).map(|c| c.spans), Ok(2));
        // An inner span that outlasts its outer one by a single ulp is
        // rejected: the checks are exact.
        let rounded = r#"{"traceEvents":[
            {"name":"launch","cat":"core","ph":"B","ts":0,"pid":2,"tid":0},
            {"name":"merge","cat":"core","ph":"B","ts":1,"pid":2,"tid":0},
            {"ph":"E","ts":4365.894650000001,"pid":2,"tid":0},
            {"ph":"E","ts":4365.89465,"pid":2,"tid":0}
        ]}"#;
        let err = validate_chrome_trace(rounded).unwrap_err();
        assert!(err.contains("span inside it ends"), "err = {err}");
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents":[{"ph":"B"}]}"#).is_err());
    }

    #[test]
    fn process_labels() {
        assert_eq!(process_label(PID_DRAM), "dram");
        assert_eq!(process_label(PID_CORE), "core");
        assert_eq!(process_label(PID_SERVE), "serve");
        assert_eq!(process_label(99), "other");
    }
}

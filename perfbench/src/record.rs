//! What a benchmark run records: host-time spans around the benchmark's
//! own calls into each layer, named counters, and output checks.
//!
//! Spans are kept in memory and written out with the result; the
//! self-time arithmetic (span time minus the part of it child spans
//! cover) is done once, by `perfbench/spans.py`, for every workload.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One host-time interval around a call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// Output checks: every check counts as attempted, every broken one as
/// failed (with a message, the first few kept).
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// Keeps a failure message (the first few) without counting a check.
    pub fn note(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    pub counters: BTreeMap<String, f64>,
    pub checks: Checks,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            checks: Checks::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span; close it with [`Self::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>, run: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        run: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of the most recently opened span, ns.
    pub fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end_ns - s.start_ns)
    }

    pub fn add(&mut self, counter: &str, v: f64) {
        *self.counters.entry(counter.to_string()).or_insert(0.0) += v;
    }

    pub fn set(&mut self, counter: &str, v: f64) {
        self.counters.insert(counter.to_string(), v);
    }

    pub fn counters_json(&self) -> Value {
        Value::Object(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Float(v)))
                .collect(),
        )
    }

    pub fn checks_json(&self) -> Value {
        obj(vec![
            ("attempted", Value::Int(i128::from(self.checks.attempted))),
            ("failed", Value::Int(i128::from(self.checks.failed))),
            (
                "failures",
                Value::Array(
                    self.checks
                        .failures
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn spans_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Value::Str(s.name.clone())),
                        ("start", Value::Int(i128::from(s.start_ns))),
                        ("end", Value::Int(i128::from(s.end_ns))),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Int(p as i128)),
                        ),
                        ("run", Value::Int(i128::from(s.run))),
                    ])
                })
                .collect(),
        )
    }
}

/// A JSON object with keys in the given order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// FNV-1a over bytes: the digest printed for simulated outputs, so two
/// sets of runs can be compared without shipping the outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_distinct_and_stable() {
        assert_eq!(sub_seed(7, 1), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 1), sub_seed(7, 2));
        assert_ne!(sub_seed(7, 1), sub_seed(8, 1));
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut r = Recorder::new();
        let outer = r.open("outer", None, 0);
        r.time("inner", Some(outer), 0, || ());
        r.close(outer);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[0].start_ns <= r.spans[1].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || "fine".into());
        c.check(false, || "broken".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.failures, vec!["broken".to_string()]);
    }
}

//! Persistent cache store: snapshot a warm [`PlanCache`] to a file and
//! reload it in a later process.
//!
//! The cache makes repeated work cheap *within* a process; every new
//! process still pays the full cold start. [`CacheStore`] closes that
//! gap for the sweep binaries and benches (`--cache-dir`) and for
//! [`EngineBuilder::cache_path`](crate::engine::EngineBuilder::cache_path):
//! the stream and report tiers serialise through the vendored serde
//! shim and restore into a fresh cache with their exact keys intact.
//! The plan tier is not persisted: a plan is a microsecond-cheap pure
//! function of its [`PlanKey`](crate::cache::PlanKey), so a warm
//! process rebuilds it rather than trusting shard coordinates from a
//! file.
//!
//! # Format
//!
//! A store file is a JSON object with three keys:
//!
//! * `magic` — the literal `"c2m-cache"`.
//! * `format_version` — [`CacheStore::FORMAT_VERSION`]; bumped whenever
//!   the word layout below changes.
//! * `words` — the cache contents as a flat `u64` word stream (the
//!   vendored `serde_json` round-trips integers exactly, so every word
//!   survives the text encoding bit-for-bit): the stream tier, then the
//!   report tier. Each tier is an entry count followed by its entries
//!   in key order, and each entry is its key length, its key words,
//!   then its value — the sequence count for a stream, the report's
//!   fields (floats as IEEE-754 bit patterns) for a report.
//!
//! **Stale or mismatched files are ignored, never trusted**: any guard
//! failure — missing file, wrong magic, version mismatch, malformed
//! JSON, a header field given twice, a length prefix longer than the
//! words left, trailing words, a tier whose keys are not strictly
//! increasing, a report float that is NaN or infinite, or a malformed
//! report — makes [`CacheStore::load_into`] return `false` and leave the
//! cache cold. (`save` writes each field once and each tier in strictly
//! increasing key order, and a priced report is finite, so none of these
//! can come from a real store.) Keys are opaque: a lookup serves an entry
//! only under a key equal to the one a query builds, so a corrupt key
//! is an entry that is never served. Loading never panics on file
//! content, and no stored value is ever used as an index, so no stored
//! word can make a later launch panic.

use crate::cache::PlanCache;
use c2m_dram::{
    CacheCounters, CommandKind, CommandStats, EnergyBreakdown, ExecutionReport, ShardEnergy,
};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Snapshot/load of a [`PlanCache`] to/from a versioned store file.
/// See the [module docs](self) for the format and trust rules.
#[derive(Debug, Clone, Copy)]
pub struct CacheStore;

/// Command kinds in their fixed store order (the order
/// [`CommandStats::iter`] yields). The store encodes one count per kind.
const COMMAND_KINDS: [CommandKind; 7] = [
    CommandKind::Act,
    CommandKind::Pre,
    CommandKind::Aap,
    CommandKind::Ap,
    CommandKind::Apa,
    CommandKind::Rd,
    CommandKind::Wr,
];

const MAGIC: &str = "c2m-cache";

impl CacheStore {
    /// Version of the word layout. Readers reject any other value.
    /// Version 3 stores every entry as its opaque key words plus its
    /// value.
    pub const FORMAT_VERSION: u64 = 3;

    /// Writes `cache`'s entries to `path` (creating parent directories),
    /// replacing any existing file. Tallies are not persisted — they
    /// count lookups, not contents.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from directory creation or the write.
    pub fn save(path: &Path, cache: &PlanCache) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let words = encode(cache);
        let file = Value::Object(vec![
            ("magic".into(), Value::Str(MAGIC.into())),
            (
                "format_version".into(),
                Value::Int(i128::from(Self::FORMAT_VERSION)),
            ),
            (
                "words".into(),
                Value::Array(
                    words
                        .into_iter()
                        .map(|w| Value::Int(i128::from(w)))
                        .collect(),
                ),
            ),
        ]);
        let text = serde_json::to_string(&file)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        std::fs::write(path, text)
    }

    /// Loads the store file at `path` into `cache`, returning whether
    /// any entries were installed. Every failure path (missing file,
    /// guard mismatch, corruption) returns `false` and leaves `cache`
    /// untouched — a bad file is just a cold start.
    pub fn load_into(path: &Path, cache: &PlanCache) -> bool {
        let Ok(text) = std::fs::read_to_string(path) else {
            return false;
        };
        let Some((streams, reports)) = parse(&text) else {
            return false;
        };
        let any = !streams.is_empty() || !reports.is_empty();
        cache.streams.restore(streams);
        cache.reports.restore(reports);
        any
    }
}

/// One persisted tier's entries: key words and value.
type Entries<V> = Vec<(Box<[u64]>, V)>;

/// Parses and guards a store file, returning its stream and report
/// entries or `None`.
fn parse(text: &str) -> Option<(Entries<u64>, Entries<ExecutionReport>)> {
    let Ok(value) = serde_json::from_str(text) else {
        return None;
    };
    let Value::Object(fields) = value else {
        return None;
    };
    // A repeated field is ambiguous: `field` would take the first,
    // real `serde_json` the last.
    if (1..fields.len()).any(|i| fields[..i].iter().any(|(k, _)| *k == fields[i].0)) {
        return None;
    }
    let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    match field("magic")? {
        Value::Str(s) if s == MAGIC => {}
        _ => return None,
    }
    if field("format_version")? != &Value::Int(i128::from(CacheStore::FORMAT_VERSION)) {
        return None;
    }
    let Value::Array(raw) = field("words")? else {
        return None;
    };
    let mut words = Vec::with_capacity(raw.len());
    for v in raw {
        match v {
            Value::Int(i) if (0..=i128::from(u64::MAX)).contains(i) => {
                words.push(*i as u64);
            }
            _ => return None,
        }
    }
    decode(&words)
}

// ---------------------------------------------------------------------
// Word encoding. Every tier and key is length-prefixed; floats are IEEE
// bit patterns.

fn encode(cache: &PlanCache) -> Vec<u64> {
    let mut w = Vec::new();
    cache
        .streams
        .read(|entries| encode_tier(&mut w, entries, |w, &seqs| w.push(seqs)));
    cache
        .reports
        .read(|entries| encode_tier(&mut w, entries, encode_report));
    w
}

/// A tier's entry count, then each entry (in key order, so a loaded
/// store saves back byte-identically) as its key length, key words and
/// value.
fn encode_tier<V>(
    w: &mut Vec<u64>,
    entries: &BTreeMap<Box<[u64]>, V>,
    value: impl Fn(&mut Vec<u64>, &V),
) {
    w.push(entries.len() as u64);
    for (key, v) in entries {
        w.push(key.len() as u64);
        w.extend_from_slice(key);
        value(w, v);
    }
}

fn encode_report(w: &mut Vec<u64>, report: &ExecutionReport) {
    w.push(report.elapsed_ns.to_bits());
    w.push(report.energy_nj.to_bits());
    w.push(report.useful_ops);
    w.push(report.area_mm2.to_bits());
    for kind in COMMAND_KINDS {
        w.push(report.stats.count(kind));
    }
    let e = &report.energy;
    w.extend([
        e.dynamic_nj.to_bits(),
        e.host_nj.to_bits(),
        e.background_busy_nj.to_bits(),
        e.background_idle_nj.to_bits(),
        e.total_nj.to_bits(),
    ]);
    w.push(e.shards.len() as u64);
    for s in &e.shards {
        w.extend([
            s.channel as u64,
            s.rank as u64,
            s.dynamic_nj.to_bits(),
            s.busy_ns.to_bits(),
            s.background_busy_nj.to_bits(),
            s.background_idle_nj.to_bits(),
        ]);
    }
    // `report.cache` is deliberately not persisted: counter snapshots
    // belong to the producing run, and a report-cache hit re-stamps
    // them from the consuming engine anyway.
}

// ---------------------------------------------------------------------
// Word decoding: a cursor over the stream. Every read is checked; any
// failure aborts the whole parse (`None`), so a truncated or corrupt
// file can never install partial or garbage entries.

struct Reader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u(&mut self) -> Option<u64> {
        let v = *self.words.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn n(&mut self) -> Option<usize> {
        usize::try_from(self.u()?).ok()
    }

    /// A report float, rejected when NaN or infinite: a report hit would
    /// serve it as output.
    fn f(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u()?)).filter(|v| v.is_finite())
    }

    /// A length prefix, rejected when it exceeds the words remaining
    /// (each element takes at least one word), so corrupt lengths can
    /// never drive a huge allocation.
    fn len(&mut self) -> Option<usize> {
        let len = self.n()?;
        (len <= self.words.len() - self.pos).then_some(len)
    }

    /// A length-prefixed run of key words.
    fn key(&mut self) -> Option<Box<[u64]>> {
        let len = self.len()?;
        let words = self.words.get(self.pos..self.pos + len)?.into();
        self.pos += len;
        Some(words)
    }

    fn done(&self) -> bool {
        self.pos == self.words.len()
    }
}

fn decode_report(r: &mut Reader<'_>) -> Option<ExecutionReport> {
    let elapsed_ns = r.f()?;
    let energy_nj = r.f()?;
    let useful_ops = r.u()?;
    let area_mm2 = r.f()?;
    let mut stats = CommandStats::default();
    for kind in COMMAND_KINDS {
        stats.record_n(kind, r.u()?);
    }
    let dynamic_nj = r.f()?;
    let host_nj = r.f()?;
    let background_busy_nj = r.f()?;
    let background_idle_nj = r.f()?;
    let total_nj = r.f()?;
    let len = r.len()?;
    let shards = (0..len)
        .map(|_| {
            Some(ShardEnergy {
                channel: r.n()?,
                rank: r.n()?,
                dynamic_nj: r.f()?,
                busy_ns: r.f()?,
                background_busy_nj: r.f()?,
                background_idle_nj: r.f()?,
            })
        })
        .collect::<Option<_>>()?;
    Some(ExecutionReport {
        elapsed_ns,
        stats,
        energy_nj,
        useful_ops,
        area_mm2,
        energy: EnergyBreakdown {
            dynamic_nj,
            host_nj,
            background_busy_nj,
            background_idle_nj,
            total_nj,
            shards,
        },
        cache: CacheCounters::default(),
    })
}

fn decode(words: &[u64]) -> Option<(Entries<u64>, Entries<ExecutionReport>)> {
    let mut r = Reader { words, pos: 0 };
    let streams = decode_tier(&mut r, Reader::u)?;
    let reports = decode_tier(&mut r, decode_report)?;
    // Trailing words mean the file disagrees with this layout — distrust
    // all of it.
    r.done().then_some((streams, reports))
}

fn decode_tier<'a, V>(
    r: &mut Reader<'a>,
    value: impl Fn(&mut Reader<'a>) -> Option<V>,
) -> Option<Entries<V>> {
    let len = r.len()?;
    let mut entries: Entries<V> = Vec::new();
    for _ in 0..len {
        let key = r.key()?;
        // Keys must be strictly increasing, as `save` writes them: a
        // repeated key would silently replace an entry.
        if entries.last().is_some_and(|(prev, _)| *prev >= key) {
            return None;
        }
        entries.push((key, value(r)?));
    }
    Some(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::engine::{C2mEngine, EngineConfig};
    use std::sync::Arc;

    fn temp_store(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("c2m_store_{}_{name}.json", std::process::id()))
    }

    fn warm_cache() -> Arc<PlanCache> {
        let cache = Arc::new(PlanCache::default());
        let engine = C2mEngine::builder(EngineConfig::c2m(16))
            .shared_cache(Arc::clone(&cache))
            .build();
        let xs: Vec<i64> = (0..256).map(|i| i64::from(i % 3) - 1).collect();
        let _ = engine.ternary_gemv(&xs, 64);
        let _ = engine.ternary_gemm(8, 64, &xs);
        let _ = engine.int_gemv(&xs, 64, &[(0, false), (2, true)]);
        cache
    }

    #[test]
    fn save_then_load_restores_every_tier() {
        let path = temp_store("round_trip");
        let resaved = temp_store("round_trip_resaved");
        let cache = warm_cache();
        CacheStore::save(&path, &cache).expect("save");
        let restored = PlanCache::new(CacheConfig::default());
        assert!(CacheStore::load_into(&path, &restored));
        CacheStore::save(&resaved, &restored).expect("resave");
        let (saved, again) = (std::fs::read(&path), std::fs::read(&resaved));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&resaved).ok();

        // Every persisted tier (streams and reports) comes back whole,
        // and saves back byte for byte.
        assert_eq!(
            cache.streams.read(BTreeMap::clone),
            restored.streams.read(BTreeMap::clone)
        );
        assert_eq!(
            cache.reports.read(BTreeMap::len),
            restored.reports.read(BTreeMap::len)
        );
        assert!(
            cache.reports.read(BTreeMap::len) > 0,
            "warm-up must store reports"
        );
        assert_eq!(saved.expect("saved"), again.expect("resaved"));
        // Loading installs entries without counting lookups.
        assert_eq!(restored.counters(), CacheCounters::default());
        // And the restored entries serve: a repeat launch on the
        // restored cache is a pure report hit.
        let engine = C2mEngine::builder(EngineConfig::c2m(16))
            .shared_cache(Arc::new(restored))
            .build();
        let xs: Vec<i64> = (0..256).map(|i| i64::from(i % 3) - 1).collect();
        let rep = engine.ternary_gemv(&xs, 64);
        assert_eq!(rep.cache.report_hits, 1);
        assert_eq!(rep.cache.report_misses, 0);
    }

    #[test]
    fn load_missing_or_corrupt_or_stale_is_cold() {
        let cold = |text: Option<&str>, name: &str| {
            let path = temp_store(name);
            if let Some(t) = text {
                std::fs::write(&path, t).unwrap();
            }
            let cache = PlanCache::default();
            let loaded = CacheStore::load_into(&path, &cache);
            std::fs::remove_file(&path).ok();
            assert!(!loaded, "{name} must be treated as cold");
            assert!(cache.streams.read(BTreeMap::is_empty));
            assert!(cache.reports.read(BTreeMap::is_empty));
        };
        cold(None, "missing");
        cold(Some("not json at all"), "corrupt_text");
        cold(Some("{\"magic\": \"c2m-cache\"}"), "missing_fields");
        cold(
            Some("{\"magic\": \"other\", \"format_version\": 3, \"words\": []}"),
            "wrong_magic",
        );

        // A real store under a newer or an older (version 2, with typed
        // kernel keys) format version must also be cold.
        let path = temp_store("stale");
        CacheStore::save(&path, &warm_cache()).expect("save");
        let text = std::fs::read_to_string(&path).unwrap();
        for (from, to, name) in [
            (
                "\"format_version\":3",
                "\"format_version\":999",
                "version_bump",
            ),
            ("\"format_version\":3", "\"format_version\":2", "version_2"),
        ] {
            assert!(text.contains(from), "store text must contain {from}");
            cold(Some(&text.replace(from, to)), name);
        }
        // Truncated words: chop the tail of the array.
        let truncated = {
            let idx = text.rfind(',').unwrap();
            format!("{}]}}", &text[..idx])
        };
        cold(Some(&truncated), "truncated_words");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_words_never_panic_a_later_launch() {
        // Every word of a small 4-channel store is set to 99 in turn.
        // Whether or not the load accepts the file, launching the saved
        // input and a fresh one must not panic, and the fresh launch —
        // which no stored entry covers — must price exactly as an
        // uncached engine does.
        let mut cfg = EngineConfig::c2m(16);
        cfg.dram.channels = 4;
        let saved: Vec<i64> = (0..64).map(|i| i64::from(i % 3) - 1).collect();
        let fresh: Vec<i64> = (0..64).map(|i| 1 - i64::from(i % 3)).collect();
        let cache = Arc::new(PlanCache::default());
        let _ = C2mEngine::builder(cfg.clone())
            .shared_cache(Arc::clone(&cache))
            .build()
            .ternary_gemv(&saved, 64);
        let path = temp_store("corrupt_words");
        CacheStore::save(&path, &cache).expect("save");
        let text = std::fs::read_to_string(&path).expect("store written");
        let Ok(Value::Object(fields)) = serde_json::from_str(&text) else {
            panic!("store is a JSON object");
        };
        let words_at = fields
            .iter()
            .position(|(k, _)| k == "words")
            .expect("words field");
        let Value::Array(words) = &fields[words_at].1 else {
            panic!("words is an array");
        };
        let expect = C2mEngine::builder(cfg.clone())
            .no_cache()
            .build()
            .ternary_gemv(&fresh, 64);

        let mut accepted = 0;
        for i in 0..words.len() {
            let mut corrupt = words.clone();
            corrupt[i] = Value::Int(99);
            let mut file = fields.clone();
            file[words_at].1 = Value::Array(corrupt);
            std::fs::write(&path, serde_json::to_string(&Value::Object(file)).unwrap()).unwrap();
            let cache = Arc::new(PlanCache::default());
            accepted += usize::from(CacheStore::load_into(&path, &cache));
            let engine = C2mEngine::builder(cfg.clone()).shared_cache(cache).build();
            let _ = engine.ternary_gemv(&saved, 64);
            let got = engine.ternary_gemv(&fresh, 64);
            assert_eq!(
                (got.elapsed_ns.to_bits(), got.energy_nj.to_bits()),
                (expect.elapsed_ns.to_bits(), expect.energy_nj.to_bits()),
                "word {i}: a corrupt store changed an uncovered launch"
            );
        }
        std::fs::remove_file(&path).ok();
        assert!(accepted > 0, "some corrupt stores must load and be served");
    }

    /// `text`, a saved store, with its `words` array replaced.
    fn with_words(text: &str, words: &[u64]) -> String {
        let Ok(Value::Object(mut fields)) = serde_json::from_str(text) else {
            panic!("store is a JSON object");
        };
        let (_, slot) = fields
            .iter_mut()
            .find(|(k, _)| k == "words")
            .expect("words field");
        *slot = Value::Array(words.iter().map(|&w| Value::Int(i128::from(w))).collect());
        serde_json::to_string(&Value::Object(fields)).unwrap()
    }

    #[test]
    fn hostile_stores_load_cold_and_launch_as_a_cold_engine_does() {
        let cache = warm_cache();
        let path = temp_store("hostile");
        CacheStore::save(&path, &cache).expect("save");
        let text = std::fs::read_to_string(&path).expect("store written");
        let words = encode(&cache);
        // Word positions: the stream tier's count (word 0), each stream
        // entry as its key length, key words and sequence count; then
        // the report tier's count, and the first report after its key,
        // whose shard count follows 16 words of scalars, command counts
        // and energies.
        let mut reports = 1;
        for _ in 0..words[0] {
            reports += 2 + words[reports] as usize;
        }
        let first_report = reports + 2 + words[reports + 1] as usize;
        let set = |at: usize, w: u64| {
            let mut v = words.clone();
            v[at] = w;
            with_words(&text, &v)
        };
        let duplicate_key = {
            let mut v = vec![words[0] + 1];
            v.extend_from_slice(&words[1..3 + words[1] as usize]);
            v.extend_from_slice(&words[1..]);
            with_words(&text, &v)
        };
        let head = text.strip_suffix('}').expect("store is one object");
        let cases = [
            // Rejected by the guards in `parse`, `decode_tier` and
            // `Reader::f`.
            ("NaN report float", set(first_report, f64::NAN.to_bits())),
            (
                "+inf report float",
                set(first_report, f64::INFINITY.to_bits()),
            ),
            (
                "-inf report float",
                set(first_report + 1, f64::NEG_INFINITY.to_bits()),
            ),
            ("duplicate stream key", duplicate_key),
            (
                "repeated header field",
                format!("{head},\"format_version\":2}}"),
            ),
            // Huge length prefixes, rejected by the words-left check.
            ("u64::MAX stream count", set(0, u64::MAX)),
            ("u64::MAX key length", set(1, u64::MAX)),
            ("u64::MAX shard count", set(first_report + 16, u64::MAX)),
        ];

        let xs: Vec<i64> = (0..256).map(|i| i64::from(i % 3) - 1).collect();
        let launch = |cache: Arc<PlanCache>| {
            let engine = C2mEngine::builder(EngineConfig::c2m(16))
                .shared_cache(cache)
                .build();
            serde_json::to_string(&engine.ternary_gemv(&xs, 64)).expect("report serialises")
        };
        let cold = launch(Arc::new(PlanCache::default()));
        for (case, contents) in &cases {
            std::fs::write(&path, contents).expect("temp dir is writable");
            let cache = Arc::new(PlanCache::default());
            assert!(!CacheStore::load_into(&path, &cache), "{case} loaded");
            assert!(cache.streams.read(BTreeMap::is_empty), "{case}");
            assert!(cache.reports.read(BTreeMap::is_empty), "{case}");
            assert_eq!(launch(cache), cold, "{case}");
        }
        // The unedited store still loads.
        std::fs::write(&path, &text).expect("temp dir is writable");
        assert!(CacheStore::load_into(&path, &PlanCache::default()));
        std::fs::remove_file(&path).ok();
    }
}

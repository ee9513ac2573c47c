//! Persistent cache store: snapshot a warm [`PlanCache`] to a file and
//! reload it in a later process.
//!
//! PR 6 made repeated work cheap *within* a process; every new process
//! still pays the full cold start. [`CacheStore`] closes that gap for
//! the sweep binaries and benches (`--cache-dir`) and for
//! [`EngineBuilder::cache_path`](crate::engine::EngineBuilder::cache_path):
//! the priced-stream and whole-launch report tiers serialise through
//! the vendored serde shim and restore into a fresh cache with their
//! equality-gate content intact. The plan tier is not persisted: a plan
//! is a microsecond-cheap pure function of its
//! [`PlanKey`](crate::cache::PlanKey), so a warm process rebuilds it
//! rather than trusting shard coordinates from a file.
//!
//! # Format
//!
//! A store file is a JSON object with three keys:
//!
//! * `magic` — the literal `"c2m-cache"`.
//! * `format_version` — [`CacheStore::FORMAT_VERSION`]; bumped whenever
//!   the word layout below changes.
//! * `words` — the cache contents as a flat `u64` word stream
//!   (length-prefixed sections; floats as IEEE-754 bit patterns; the
//!   vendored `serde_json` round-trips integers exactly, so every word
//!   survives the text encoding bit-for-bit).
//!
//! **Stale or mismatched files are ignored, never trusted**: any guard
//! failure — missing file, wrong magic, version mismatch, malformed
//! JSON, truncated or nonsensical words — makes
//! [`CacheStore::load_into`] return `false` and leave the cache cold.
//! Loading never panics on file content, and no stored value is ever
//! used as an index, so no stored word can make a later launch panic.

use crate::cache::{CacheContents, PlanCache, ReportKernel, StreamParams};
use c2m_dram::{
    CacheCounters, CommandKind, CommandStats, EnergyBreakdown, ExecutionReport, ShardEnergy,
};
use serde::Value;
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
    /// Version 2 dropped the plan section and the topology-fingerprint
    /// header.
    pub const FORMAT_VERSION: u64 = 2;

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
        let words = encode(cache.export_contents());
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
        let Some(contents) = parse(&text) else {
            return false;
        };
        let any = !contents.streams.is_empty() || !contents.reports.is_empty();
        cache.import_contents(contents);
        any
    }

    /// Convenience: a fresh [`PlanCache`] with the given limits, warmed
    /// from `path` when the store file is present and valid.
    #[must_use]
    pub fn load(path: &Path, cfg: crate::cache::CacheConfig) -> PlanCache {
        let cache = PlanCache::new(cfg);
        let _ = Self::load_into(path, &cache);
        cache
    }
}

/// Parses and guards a store file, returning its contents or `None`.
fn parse(text: &str) -> Option<CacheContents> {
    let Ok(value) = serde_json::from_str(text) else {
        return None;
    };
    let Value::Object(fields) = value else {
        return None;
    };
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
// Word encoding. Every section is length-prefixed; enums are tags;
// floats are IEEE bit patterns; `i64` stream values are stored as their
// two's-complement `u64` bits.

fn encode(contents: CacheContents) -> Vec<u64> {
    let mut w = Vec::new();
    w.push(contents.streams.len() as u64);
    for (params, xs, seqs) in &contents.streams {
        w.push(params.radix as u64);
        w.push(params.digits as u64);
        w.push(u64::from(params.iarm));
        w.push(u64::from(params.doubled));
        w.push(xs.len() as u64);
        w.extend(xs.iter().map(|&v| v as u64));
        w.push(*seqs);
    }
    w.push(contents.reports.len() as u64);
    for (cfg_words, kernel, report) in &contents.reports {
        w.push(cfg_words.len() as u64);
        w.extend(cfg_words.iter().copied());
        encode_kernel(&mut w, kernel);
        encode_report(&mut w, report);
    }
    w
}

fn encode_kernel(w: &mut Vec<u64>, kernel: &ReportKernel) {
    match kernel {
        ReportKernel::TernaryGemv { n, x } => {
            w.extend([0, *n as u64, x.len() as u64]);
            w.extend(x.iter().map(|&v| v as u64));
        }
        ReportKernel::TernaryGemvBatch { n, xs } => {
            w.extend([1, *n as u64, xs.len() as u64]);
            for row in xs.iter() {
                w.push(row.len() as u64);
                w.extend(row.iter().map(|&v| v as u64));
            }
        }
        ReportKernel::Rows {
            m,
            n,
            doubled,
            sample,
        } => {
            w.extend([
                2,
                *m as u64,
                *n as u64,
                u64::from(*doubled),
                sample.len() as u64,
            ]);
            w.extend(sample.iter().map(|&v| v as u64));
        }
        ReportKernel::IntGemv { n, planes, x } => {
            w.extend([3, *n as u64, planes.len() as u64]);
            for &(shift, neg) in planes.iter() {
                w.push(u64::from(shift) << 1 | u64::from(neg));
            }
            w.push(x.len() as u64);
            w.extend(x.iter().map(|&v| v as u64));
        }
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

    fn f(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u()?))
    }

    fn i(&mut self) -> Option<i64> {
        Some(self.u()? as i64)
    }

    fn flag(&mut self) -> Option<bool> {
        match self.u()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// A length prefix, rejected when it exceeds the words remaining
    /// (each element takes at least one word), so corrupt lengths can
    /// never drive a huge allocation.
    fn len(&mut self) -> Option<usize> {
        let len = self.n()?;
        (len <= self.words.len() - self.pos).then_some(len)
    }

    fn i64_vec(&mut self) -> Option<Box<[i64]>> {
        let len = self.len()?;
        (0..len).map(|_| self.i()).collect()
    }

    fn done(&self) -> bool {
        self.pos == self.words.len()
    }
}

fn decode_kernel(r: &mut Reader<'_>) -> Option<ReportKernel> {
    match r.u()? {
        0 => Some(ReportKernel::TernaryGemv {
            n: r.n()?,
            x: r.i64_vec()?,
        }),
        1 => {
            let n = r.n()?;
            let rows = r.len()?;
            let xs = (0..rows).map(|_| r.i64_vec()).collect::<Option<_>>()?;
            Some(ReportKernel::TernaryGemvBatch { n, xs })
        }
        2 => Some(ReportKernel::Rows {
            m: r.n()?,
            n: r.n()?,
            doubled: r.flag()?,
            sample: r.i64_vec()?,
        }),
        3 => {
            let n = r.n()?;
            let len = r.len()?;
            let planes = (0..len)
                .map(|_| {
                    let packed = r.u()?;
                    let shift = u32::try_from(packed >> 1).ok()?;
                    Some((shift, packed & 1 == 1))
                })
                .collect::<Option<_>>()?;
            Some(ReportKernel::IntGemv {
                n,
                planes,
                x: r.i64_vec()?,
            })
        }
        _ => None,
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

fn decode(words: &[u64]) -> Option<CacheContents> {
    let mut r = Reader { words, pos: 0 };
    let mut contents = CacheContents::default();
    let streams = r.len()?;
    for _ in 0..streams {
        let params = StreamParams {
            radix: r.n()?,
            digits: r.n()?,
            iarm: r.flag()?,
            doubled: r.flag()?,
        };
        let xs = r.i64_vec()?;
        let seqs = r.u()?;
        contents.streams.push((params, xs, seqs));
    }
    let reports = r.len()?;
    for _ in 0..reports {
        let cfg_len = r.len()?;
        let cfg_words = (0..cfg_len).map(|_| r.u()).collect::<Option<_>>()?;
        let kernel = decode_kernel(&mut r)?;
        let report = decode_report(&mut r)?;
        contents.reports.push((cfg_words, kernel, report));
    }
    // Trailing words mean the file disagrees with this layout — distrust
    // all of it.
    r.done().then_some(contents)
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
        let cache = warm_cache();
        CacheStore::save(&path, &cache).expect("save");
        let restored = CacheStore::load(&path, CacheConfig::default());
        std::fs::remove_file(&path).ok();

        // Every persisted tier (streams and reports) comes back whole.
        let before = cache.export_contents();
        let after = restored.export_contents();
        assert_eq!(before.streams.len(), after.streams.len());
        assert_eq!(before.reports.len(), after.reports.len());
        assert!(!before.reports.is_empty(), "warm-up must store reports");
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
            let contents = cache.export_contents();
            assert!(contents.streams.is_empty());
            assert!(contents.reports.is_empty());
        };
        cold(None, "missing");
        cold(Some("not json at all"), "corrupt_text");
        cold(Some("{\"magic\": \"c2m-cache\"}"), "missing_fields");
        cold(
            Some("{\"magic\": \"other\", \"format_version\": 2, \"words\": []}"),
            "wrong_magic",
        );

        // A real store under a newer or an older (version 1, with a plan
        // section) format version must also be cold.
        let path = temp_store("stale");
        CacheStore::save(&path, &warm_cache()).expect("save");
        let text = std::fs::read_to_string(&path).unwrap();
        for (from, to, name) in [
            (
                "\"format_version\":2",
                "\"format_version\":999",
                "version_bump",
            ),
            ("\"format_version\":2", "\"format_version\":1", "version_1"),
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
}

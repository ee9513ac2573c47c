//! Persistent cache store: snapshot a warm [`PlanCache`] to a file and
//! reload it in a later process.
//!
//! The cache makes repeated work cheap *within* a process; every new
//! process still pays the full cold start. [`CacheStore`] closes that
//! gap for the sweep binaries and benches (`--cache-dir`) and for
//! [`EngineBuilder::cache_path`](crate::engine::EngineBuilder::cache_path):
//! the stream and report tiers are written as a flat word stream and
//! restore into a fresh cache with their exact keys intact.
//! The plan tier is not persisted: a plan is a microsecond-cheap pure
//! function of its [`PlanKey`](crate::cache::PlanKey), so a warm
//! process rebuilds it rather than trusting shard coordinates from a
//! file.
//!
//! # Format
//!
//! A store file is one line of JSON text in a fixed layout:
//! `{"magic":"c2m-cache","format_version":6,"words":[`, then each word
//! in decimal, separated by commas, then `]}`. These are the bytes a JSON
//! writer gives the object with these three keys, so any JSON reader
//! reads a store, but [`CacheStore`] reads and writes the text directly,
//! without a JSON value tree.
//!
//! * `magic` — the literal `"c2m-cache"`.
//! * `format_version` — [`CacheStore::FORMAT_VERSION`]; bumped whenever
//!   the word layout or its text changes.
//! * `words` — the cache contents as a flat `u64` word stream, each word
//!   written as its two's-complement `i64` value, which round-trips every
//!   word bit-for-bit. Signed inputs sit in the keys as `x as u64`, so a
//!   negative input costs its own digits and a sign (`-1`, not the 20
//!   digits of `u64::MAX`). The stream tier comes first, then the report
//!   tier. Each tier is an entry count followed by its entries in key
//!   order, and each entry is its key length, its key words, then its
//!   value — the sequence count for a stream, and for a report its 11
//!   fields: elapsed time, energy, useful operations and area (floats as
//!   IEEE-754 bit patterns), then one count per command kind.
//!
//! **Stale or mismatched files are ignored, never trusted**: any guard
//! failure makes [`CacheStore::load_into`] return `false` and leave the
//! cache cold. The text guard accepts only the layout `save` writes: the
//! literal head (so a wrong magic, another version, a reordered,
//! missing or repeated field all fail), then words with no plus sign, no
//! `-0`, no leading zero, no whitespace and no value outside the `i64`
//! range, separated by single commas, then the literal tail, so a
//! truncated file fails too. The word guards then reject a length prefix
//! longer than the words left, trailing words, a tier whose keys are not
//! strictly increasing, a report float that is NaN or infinite, and a
//! malformed report. (`save` writes each tier in strictly increasing key
//! order, and a priced report is finite, so none of these can come from
//! a real store.) Keys are opaque: a lookup serves an entry only under a
//! key equal to the one a query builds, so a corrupt key is an entry
//! that is never served. Loading never panics on file content, and no
//! stored value is ever used as an index, so no stored word can make a
//! later launch panic.

use crate::cache::PlanCache;
use c2m_dram::{CacheCounters, CommandKind, CommandStats, ExecutionReport};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
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
    /// Version of the word layout and its text. Readers reject any other
    /// value. Version 3 stored every entry as its opaque key words plus
    /// its value, each word in unsigned decimal; version 4 wrote the
    /// same words as signed decimal; version 5 drops the per-shard energy
    /// breakdown that followed each report's command counts; version 6
    /// drops the IARM word from stream keys and the ECC row-segment and
    /// IARM words from report keys.
    pub const FORMAT_VERSION: u64 = 6;

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
        let mut out = BufWriter::new(File::create(path)?);
        write_text(&mut out, &encode(cache))?;
        out.flush()
    }

    /// Loads the store file at `path` into `cache`, returning whether
    /// any entries were installed. Every failure path (missing file,
    /// guard mismatch, corruption) returns `false` and leaves `cache`
    /// untouched — a bad file is just a cold start.
    pub fn load_into(path: &Path, cache: &PlanCache) -> bool {
        let Ok(text) = std::fs::read(path) else {
            return false;
        };
        let Some((streams, reports)) = parse_text(&text).and_then(|words| decode(&words)) else {
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

/// The text of a store file before its first word.
fn head() -> String {
    format!(
        "{{\"magic\":\"{MAGIC}\",\"format_version\":{},\"words\":[",
        CacheStore::FORMAT_VERSION
    )
}

/// The text of a store file after its last word.
const TAIL: &[u8] = b"]}";

/// Writes `words` in the store layout: the head, each word's
/// two's-complement value in decimal, separated by commas, the tail.
fn write_text(out: &mut impl Write, words: &[u64]) -> std::io::Result<()> {
    out.write_all(head().as_bytes())?;
    for (i, word) in words.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(out, "{}", word.cast_signed())?;
    }
    out.write_all(TAIL)
}

/// The words of a store file's text, or `None` unless the text is
/// exactly the layout [`write_text`] writes.
fn parse_text(text: &[u8]) -> Option<Vec<u64>> {
    let body = text.strip_prefix(head().as_bytes())?.strip_suffix(TAIL)?;
    let mut words = Vec::new();
    let mut at = 0;
    loop {
        let (word, end) = parse_word(body, at)?;
        words.push(word);
        match body.get(end) {
            None => return Some(words),
            Some(b',') => at = end + 1,
            Some(_) => return None,
        }
    }
}

/// The word that starts at `body[at]` as [`write_text`] writes it, and
/// the index just past it: a two's-complement value in decimal with no
/// plus sign, no `-0`, no leading zero and nothing outside the `i64`
/// range. Up to seven digits, which covers nearly every word of a real
/// store, are read as one eight-byte chunk, so their count and sign cost
/// no branch that a predictor could miss.
fn parse_word(body: &[u8], at: usize) -> Option<(u64, usize)> {
    let negative = body.get(at) == Some(&b'-');
    let start = at + usize::from(negative);
    let rest = body.get(start..)?;
    let chunk = match rest.get(..8) {
        Some(bytes) => bytes.try_into().expect("eight bytes"),
        None => {
            let mut bytes = [0; 8];
            bytes[..rest.len()].copy_from_slice(rest);
            bytes
        }
    };
    // Each byte less `b'0'`, first byte lowest. A borrow only reaches
    // the bytes after the first non-digit, so the digits and the first
    // non-digit come out exact. `other` has the high bit of each byte
    // that is not a digit set (adding 0x76 to 0–9 leaves it clear), so
    // its lowest set bit marks the end of the digits.
    let digits = u64::from_le_bytes(chunk).wrapping_sub(0x3030_3030_3030_3030);
    let other = (digits.wrapping_add(0x7676_7676_7676_7676) | digits) & 0x8080_8080_8080_8080;
    let (magnitude, len) = match other.trailing_zeros() / 8 {
        0 => return None,
        len @ 1..=7 => {
            if (digits & 0xFF == 0) & ((len > 1) | negative) {
                return None;
            }
            (eight_digits(digits << (64 - 8 * len)), len as usize)
        }
        _ => {
            let len = rest
                .iter()
                .position(|b| !b.is_ascii_digit())
                .unwrap_or(rest.len());
            // Nineteen digits span the `i64` range and cannot overflow a
            // `u64`; eight or more cannot start with a zero.
            if len > 19 || rest[0] == b'0' {
                return None;
            }
            let magnitude = rest[..len]
                .iter()
                .fold(0, |m, &d| m * 10 + u64::from(d - b'0'));
            (magnitude, len)
        }
    };
    if magnitude > i64::MAX.cast_unsigned() + u64::from(negative) {
        return None;
    }
    let sign = u64::from(negative).wrapping_neg();
    Some(((magnitude ^ sign).wrapping_sub(sign), start + len))
}

/// The value of eight decimal digits packed one per byte, the most
/// significant in the lowest byte (a zero byte is a leading zero).
fn eight_digits(v: u64) -> u64 {
    let v = (v * 10 + (v >> 8)) & 0x00FF_00FF_00FF_00FF;
    let v = (v * 100 + (v >> 16)) & 0x0000_FFFF_0000_FFFF;
    (v * 10_000 + (v >> 32)) & 0xFFFF_FFFF
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

    /// A report float, rejected when NaN or infinite: a report hit would
    /// serve it as output.
    fn f(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u()?)).filter(|v| v.is_finite())
    }

    /// A length prefix, rejected when it exceeds the words remaining
    /// (each element takes at least one word), so corrupt lengths can
    /// never drive a huge allocation.
    fn len(&mut self) -> Option<usize> {
        let len = usize::try_from(self.u()?).ok()?;
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
    Some(ExecutionReport {
        elapsed_ns,
        stats,
        energy_nj,
        useful_ops,
        area_mm2,
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
    use proptest::prelude::*;
    use serde::Value;
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
        // kernel keys) format version must also be cold, and so must
        // its words under version 3, which wrote them unsigned. (A
        // version 4 store, whose reports carried an energy breakdown,
        // and a version 5 one, whose keys carried the IARM and ECC
        // row-segment words, are `crates/bench/tests/stores.rs`'s
        // cases.)
        let path = temp_store("stale");
        let cache = warm_cache();
        CacheStore::save(&path, &cache).expect("save");
        let text = std::fs::read_to_string(&path).unwrap();
        let version = format!("\"format_version\":{}", CacheStore::FORMAT_VERSION);
        assert!(text.contains(&version), "store text must contain {version}");
        for (to, name) in [
            ("\"format_version\":999", "version_bump"),
            ("\"format_version\":2", "version_2"),
        ] {
            cold(Some(&text.replace(&version, to)), name);
        }
        let unsigned: Vec<String> = encode(&cache).iter().map(u64::to_string).collect();
        cold(
            Some(&format!(
                "{{\"magic\":\"{MAGIC}\",\"format_version\":3,\"words\":[{}]}}",
                unsigned.join(",")
            )),
            "version_3",
        );
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
        let words = encode(&cache);
        let expect = C2mEngine::builder(cfg.clone())
            .no_cache()
            .build()
            .ternary_gemv(&fresh, 64);

        let mut accepted = 0;
        for i in 0..words.len() {
            let mut corrupt = words.clone();
            corrupt[i] = 99;
            std::fs::write(&path, text_of(&corrupt)).unwrap();
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

    /// The store text of `words`, as `save` writes it.
    fn text_of(words: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        write_text(&mut out, words).expect("a Vec takes every write");
        out
    }

    #[test]
    fn the_text_is_what_a_json_writer_writes() {
        // The layout is the JSON object `save` used to build as a value
        // tree, byte for byte, so stores written before and after the
        // text writer load alike, and a JSON reader reads either.
        let words = encode(&warm_cache());
        let object = Value::Object(vec![
            ("magic".into(), Value::Str(MAGIC.into())),
            (
                "format_version".into(),
                Value::Int(i128::from(CacheStore::FORMAT_VERSION)),
            ),
            (
                "words".into(),
                Value::Array(
                    words
                        .iter()
                        .map(|w| Value::Int(i128::from(w.cast_signed())))
                        .collect(),
                ),
            ),
        ]);
        let text = text_of(&words);
        assert_eq!(
            String::from_utf8(text.clone()).expect("ASCII"),
            serde_json::to_string(&object).expect("serialises")
        );
        assert_eq!(parse_text(&text), Some(words));
        for word in [
            0,
            1,
            9,
            10,
            99,
            1 << 32,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(parse_text(&text_of(&[word])), Some(vec![word]), "{word}");
        }
    }

    #[test]
    fn the_reader_takes_each_word_in_one_spelling_only() {
        let parse = |token: &str| parse_text(format!("{}{token}]}}", head()).as_bytes());
        for (token, word) in [
            ("0", 0),
            ("7", 7),
            ("-1", u64::MAX),
            ("1234567", 1_234_567),
            ("-12345678", 12_345_678u64.wrapping_neg()),
            ("9223372036854775807", i64::MAX.cast_unsigned()),
            ("-9223372036854775808", 1 << 63),
        ] {
            assert_eq!(parse(token), Some(vec![word]), "{token}");
        }
        for token in [
            "",
            "-",
            "-0",
            "+1",
            "00",
            "01",
            "-01",
            "01234567",
            "-0123456789",
            " 1",
            "1 ",
            "1.0",
            "1e3",
            "9223372036854775808",
            "-9223372036854775809",
            "18446744073709551615",
            "99999999999999999999",
        ] {
            assert_eq!(parse(token), None, "{token:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The reader against an oracle: a token is a word exactly when
        /// it parses as an `i64` that prints back as the same token.
        /// The words are shaped as short, long, negative and edge values,
        /// and their text is then edited at random.
        #[test]
        fn the_word_reader_accepts_exactly_canonical_decimal(
            words in prop::collection::vec((0u8..6, any::<u64>()), 1..12),
            edits in prop::collection::vec(
                (any::<usize>(), prop::sample::select(b"0123456789-+,. ".to_vec()), 0u8..3),
                0..4,
            ),
        ) {
            let words: Vec<u64> = words
                .iter()
                .map(|&(shape, w)| match shape {
                    0 => w,
                    1 => w % 300,
                    2 => (w % 300).wrapping_neg(),
                    3 => w % 100_000_000,
                    4 => (w % 10_000_000_000).wrapping_neg(),
                    _ => [0, 1 << 63, (1 << 63) - 1, u64::MAX][(w % 4) as usize],
                })
                .collect();
            let text = text_of(&words);
            prop_assert_eq!(parse_text(&text), Some(words));
            let mut body = text[head().len()..text.len() - TAIL.len()].to_vec();
            for &(at, byte, op) in &edits {
                let at = at % (body.len() + 1);
                match (op, at < body.len()) {
                    (0, true) => {
                        body.remove(at);
                    }
                    (1, _) => body.insert(at, byte),
                    (_, true) => body[at] = byte,
                    _ => {}
                }
            }
            let body = String::from_utf8(body).expect("ASCII");
            let expect: Option<Vec<u64>> = body
                .split(',')
                .map(|token| {
                    let word = token.parse::<i64>().ok()?;
                    (word.to_string() == token).then_some(word.cast_unsigned())
                })
                .collect();
            let text = format!("{}{body}]}}", head());
            prop_assert_eq!(parse_text(text.as_bytes()), expect, "{}", body);
        }
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
        // the report tier's count, and the first report after its key:
        // elapsed time, energy, useful operations and area, then seven
        // command counts.
        let mut reports = 1;
        for _ in 0..words[0] {
            reports += 2 + words[reports] as usize;
        }
        let first_report = reports + 2 + words[reports + 1] as usize;
        let set = |at: usize, w: u64| {
            let mut v = words.clone();
            v[at] = w;
            String::from_utf8(text_of(&v)).expect("ASCII")
        };
        let duplicate_key = {
            let mut v = vec![words[0] + 1];
            v.extend_from_slice(&words[1..3 + words[1] as usize]);
            v.extend_from_slice(&words[1..]);
            String::from_utf8(text_of(&v)).expect("ASCII")
        };
        // The words as text, edited, then joined as `save` joins them.
        let decimal: Vec<String> = words.iter().map(|w| w.cast_signed().to_string()).collect();
        let edit = |at: usize, word: &str| {
            let mut v = decimal.clone();
            v[at] = word.into();
            format!("{}{}]}}", head(), v.join(","))
        };
        let head_of_text = text.strip_suffix('}').expect("store is one object");
        let mut cases = vec![
            // Rejected by the guards in `decode_tier` and `Reader::f` (one
            // case on each report float: elapsed time, energy, area), or
            // (the repeated field) by the head and tail `parse_text`
            // expects.
            ("NaN report float", set(first_report, f64::NAN.to_bits())),
            (
                "+inf report float",
                set(first_report, f64::INFINITY.to_bits()),
            ),
            (
                "-inf report float",
                set(first_report + 1, f64::NEG_INFINITY.to_bits()),
            ),
            ("NaN report area", set(first_report + 3, f64::NAN.to_bits())),
            ("duplicate stream key", duplicate_key),
            (
                "repeated header field",
                format!("{head_of_text},\"format_version\":2}}"),
            ),
            // Huge length prefixes, rejected by the words-left check.
            ("u64::MAX stream count", set(0, u64::MAX)),
            ("u64::MAX key length", set(1, u64::MAX)),
            ("u64::MAX report count", set(reports, u64::MAX)),
            ("u64::MAX report key length", set(reports + 1, u64::MAX)),
            // Text that is not the layout `save` writes, rejected by
            // `parse_text` and `parse_word`. (`-1` spells u64::MAX, so the
            // u64::MAX key length above covers it.)
            (
                "whitespace after a comma",
                format!("{}{}]}}", head(), decimal.join(", ")),
            ),
            ("a leading zero", edit(1, &format!("0{}", decimal[1]))),
            (
                "a leading zero after a sign",
                edit(1, &format!("-0{}", decimal[1])),
            ),
            ("2^63", edit(1, "9223372036854775808")),
            ("-2^63 - 1", edit(1, "-9223372036854775809")),
            ("2^64", edit(1, "18446744073709551616")),
            ("a plus sign", edit(1, &format!("+{}", decimal[1]))),
            ("-0", edit(1, "-0")),
            ("a lone sign", edit(1, "-")),
            ("a fraction", edit(1, "1.0")),
            ("an empty element", edit(1, &format!("{},", decimal[1]))),
            (
                "a trailing comma",
                format!("{}{},]}}", head(), decimal.join(",")),
            ),
            (
                "reordered header fields",
                format!(
                    "{{\"words\":[{}],\"format_version\":{},\"magic\":\"{MAGIC}\"}}",
                    decimal.join(","),
                    CacheStore::FORMAT_VERSION
                ),
            ),
        ];
        // Every proper prefix of a small real store, so a file cut short
        // anywhere, in the head, a word or the tail, is cold.
        let small = {
            let cache = Arc::new(PlanCache::default());
            let _ = C2mEngine::builder(EngineConfig::c2m(16))
                .shared_cache(Arc::clone(&cache))
                .build()
                .ternary_gemv(&[1, -1, 0, 1], 8);
            String::from_utf8(text_of(&encode(&cache))).expect("ASCII")
        };
        assert!(parse_text(small.as_bytes())
            .and_then(|w| decode(&w))
            .is_some());
        cases.extend(
            (0..small.len()).map(|end| ("a prefix of a small store", small[..end].to_string())),
        );

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
            assert!(
                !CacheStore::load_into(&path, &cache),
                "{case} loaded: {contents:.80}"
            );
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

//! The `--cache-dir` stores the sweep binaries write load back. A store
//! guard that rejected a real store would only show as a slower warm
//! run, because a cold start prints the same bytes.

use c2m_core::{CacheStore, PlanCache};
use std::path::Path;
use std::process::Command;

/// Runs `exe` with `--cache-dir` in a fresh temp directory and asserts
/// that the store it writes loads.
fn assert_store_loads(bin: &str, exe: &str) {
    let dir = std::env::temp_dir().join(format!("c2m_stores_{bin}_{}", std::process::id()));
    let out = Command::new(exe)
        .arg("--json")
        .arg("--cache-dir")
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{bin}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let store = dir.join(format!("{bin}.c2mcache.json"));
    let loaded = CacheStore::load_into(&store, &PlanCache::default());
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    assert!(loaded, "{bin}'s store must load");
}

#[test]
fn fig_scalings_store_loads() {
    assert_store_loads("fig_scaling", env!("CARGO_BIN_EXE_fig_scaling"));
}

#[test]
#[ignore = "nightly tier: fig_serve and its 39 MB store take ~7 s in a debug build"]
fn fig_serves_store_loads() {
    assert_store_loads("fig_serve", env!("CARGO_BIN_EXE_fig_serve"));
}

/// The words of a store file's text written at `version`.
fn words_of(text: &str, version: u64) -> Vec<i64> {
    text.strip_prefix(&head(version))
        .and_then(|t| t.strip_suffix("]}"))
        .expect("a store in that version's layout")
        .split(',')
        .map(|w| w.parse().expect("a word"))
        .collect()
}

/// A store file's text before its first word.
fn head(version: u64) -> String {
    format!("{{\"magic\":\"c2m-cache\",\"format_version\":{version},\"words\":[")
}

/// The text of a store file holding `words` at `version`.
fn text_of(version: u64, words: &[i64]) -> String {
    let words: Vec<String> = words.iter().map(i64::to_string).collect();
    format!("{}{}]}}", head(version), words.join(","))
}

/// Rewrites a store's words entry by entry: each stream key through
/// `stream_key`, each report key through `report_key` and each report's
/// value words through `report`.
fn rewrite(
    words: &[i64],
    stream_key: &dyn Fn(&[i64]) -> Vec<i64>,
    report_key: &dyn Fn(&[i64]) -> Vec<i64>,
    report: &dyn Fn(&[i64]) -> Vec<i64>,
) -> Vec<i64> {
    let mut out = Vec::with_capacity(words.len());
    let mut at = 0;
    let keep: &dyn Fn(&[i64]) -> Vec<i64> = &<[i64]>::to_vec;
    let tiers = [(stream_key, 1, keep), (report_key, 11, report)];
    for (key, value_len, value) in tiers {
        let entries = words[at];
        out.push(entries);
        at += 1;
        for _ in 0..entries {
            let key_len = words[at] as usize;
            let new_key = key(&words[at + 1..at + 1 + key_len]);
            out.push(new_key.len() as i64);
            out.extend(new_key);
            at += 1 + key_len;
            out.extend(value(&words[at..at + value_len]));
            at += value_len;
        }
    }
    assert_eq!(at, words.len(), "the whole store was walked");
    out
}

/// `key` with `words` inserted before position `at`.
fn insert(key: &[i64], at: usize, words: &[i64]) -> Vec<i64> {
    [&key[..at], words, &key[at..]].concat()
}

/// A store file's text in the current format, rewritten into version
/// 5's layout: there a stream key held an IARM word (always 1) after its
/// radix and digit count, and a report key's configuration words held
/// the ECC row-segment width (always 512) and the IARM word after the
/// fault rate.
fn as_format_5(text: &str) -> String {
    // A report key is the kernel's head (a tag and its shape), its
    // length-prefixed inputs, then the configuration words: radix,
    // capacity, banks, subarrays, three protection words, fault rate.
    let report_key = |key: &[i64]| {
        let (head_len, inputs) = match key[0] {
            0 => (2, 1),
            1 => (3, key[2] as usize),
            2 => (4, 1),
            tag => {
                assert_eq!(tag, 3, "a kernel tag");
                (3 + key[2] as usize, 1)
            }
        };
        let mut cfg = head_len;
        for _ in 0..inputs {
            cfg += 1 + key[cfg] as usize;
        }
        insert(key, cfg + 8, &[512, 1])
    };
    let words = words_of(text, CacheStore::FORMAT_VERSION);
    let v5 = rewrite(
        &words,
        &|key| insert(key, 2, &[1]),
        &report_key,
        &<[i64]>::to_vec,
    );
    text_of(5, &v5)
}

/// A store file's text in the current format, rewritten into version
/// 4's layout: version 5's keys, and each report's eleven words (elapsed
/// time, energy, useful operations, area, seven command counts) followed
/// by five energy-breakdown floats (dynamic, host, busy and idle
/// background, total) and a length-prefixed list of per-shard entries,
/// here empty.
fn as_format_4(text: &str) -> String {
    let words = words_of(&as_format_5(text), 5);
    let v4 = rewrite(&words, &<[i64]>::to_vec, &<[i64]>::to_vec, &|report| {
        let total_nj = report[1];
        [report, &[0, 0, 0, 0, total_nj, 0]].concat()
    });
    text_of(4, &v4)
}

/// Rewrites `fig_scaling`'s store with `stale` and asserts that the
/// rewritten store loads cold, that a run over it prints the golden
/// bytes and that the store that run saves loads.
fn assert_stale_store_loads_cold(version: u64, stale: fn(&str) -> String) {
    let exe = env!("CARGO_BIN_EXE_fig_scaling");
    let dir = std::env::temp_dir().join(format!(
        "c2m_stores_format_{version}_{}",
        std::process::id()
    ));
    let store = dir.join("fig_scaling.c2mcache.json");
    let run = || {
        let out = Command::new(exe)
            .arg("--json")
            .arg("--cache-dir")
            .arg(&dir)
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    run();
    let current = std::fs::read_to_string(&store).expect("the run writes its store");
    std::fs::write(&store, stale(&current)).expect("temp dir is writable");
    assert!(
        !CacheStore::load_into(&store, &PlanCache::default()),
        "a format-{version} store must load cold"
    );
    let stdout = run();
    let resaved = CacheStore::load_into(&store, &PlanCache::default());
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden/fig_scaling.json");
    assert!(
        stdout == std::fs::read(golden).expect("golden file"),
        "fig_scaling over a format-{version} store moved from golden/fig_scaling.json"
    );
    assert!(resaved, "the cold run saves a store that loads");
}

#[test]
fn a_format_4_store_loads_cold_and_the_run_prints_golden_bytes() {
    assert_stale_store_loads_cold(4, as_format_4);
}

#[test]
fn a_format_5_store_loads_cold_and_the_run_prints_golden_bytes() {
    assert_stale_store_loads_cold(5, as_format_5);
}

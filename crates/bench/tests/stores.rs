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

/// A store file's text in the current format, rewritten into version
/// 4's layout: there each report's eleven words (elapsed time, energy,
/// useful operations, area, seven command counts) were followed by five
/// energy-breakdown floats (dynamic, host, busy and idle background,
/// total) and a length-prefixed list of per-shard entries, here empty.
fn as_format_4(text: &str) -> String {
    let head = |version: u64| {
        format!("{{\"magic\":\"c2m-cache\",\"format_version\":{version},\"words\":[")
    };
    let body = text
        .strip_prefix(&head(CacheStore::FORMAT_VERSION))
        .and_then(|t| t.strip_suffix("]}"))
        .expect("a store in the current layout");
    let words: Vec<i64> = body
        .split(',')
        .map(|w| w.parse().expect("a word"))
        .collect();
    let mut v4 = Vec::with_capacity(words.len());
    let mut at = 0;
    // Copies the next `n` words into `v4` and returns them.
    let mut copy = |n: usize, v4: &mut Vec<i64>| {
        v4.extend_from_slice(&words[at..at + n]);
        at += n;
        &words[at - n..at]
    };
    let streams = copy(1, &mut v4)[0];
    for _ in 0..streams {
        let key_len = copy(1, &mut v4)[0] as usize;
        copy(key_len + 1, &mut v4);
    }
    let reports = copy(1, &mut v4)[0];
    for _ in 0..reports {
        let key_len = copy(1, &mut v4)[0] as usize;
        copy(key_len, &mut v4);
        let total_nj = copy(11, &mut v4)[1];
        v4.extend([0, 0, 0, 0, total_nj, 0]);
    }
    assert_eq!(at, words.len(), "the whole store was walked");
    let v4: Vec<String> = v4.iter().map(i64::to_string).collect();
    format!("{}{}]}}", head(4), v4.join(","))
}

#[test]
fn a_format_4_store_loads_cold_and_the_run_prints_golden_bytes() {
    let exe = env!("CARGO_BIN_EXE_fig_scaling");
    let dir = std::env::temp_dir().join(format!("c2m_stores_format_4_{}", std::process::id()));
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
    std::fs::write(&store, as_format_4(&current)).expect("temp dir is writable");
    assert!(
        !CacheStore::load_into(&store, &PlanCache::default()),
        "a format-4 store must load cold"
    );
    let stdout = run();
    let resaved = CacheStore::load_into(&store, &PlanCache::default());
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden/fig_scaling.json");
    assert!(
        stdout == std::fs::read(golden).expect("golden file"),
        "fig_scaling over a format-4 store moved from golden/fig_scaling.json"
    );
    assert!(resaved, "the cold run saves a store that loads");
}

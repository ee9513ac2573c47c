//! The `--cache-dir` stores the sweep binaries write load back. A store
//! guard that rejected a real store would only show as a slower warm
//! run, because a cold start prints the same bytes.

use c2m_core::{CacheStore, PlanCache};
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

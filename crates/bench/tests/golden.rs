//! Every figure binary's full `--json` stdout, byte for byte, against
//! the files in `golden/` (recorded at `RAYON_NUM_THREADS=1`; the bytes
//! do not depend on the thread count, nor on a debug or release build).
//!
//! A change that moves these bytes on purpose re-records the files in
//! the same diff: `RAYON_NUM_THREADS=1 cargo run --release -p c2m_bench
//! --bin fig8 -- --json > golden/fig8.json`, and likewise for the
//! others.
//!
//! `golden/traces/` holds the `fig_serve --trace` and `fig_scaling
//! --trace` exports, recorded the same way (`RAYON_NUM_THREADS=1 cargo
//! run --release -p c2m_bench --bin fig_serve -- --trace
//! golden/traces/fig_serve.json`).

use std::path::Path;
use std::process::Command;

/// Runs `exe --json` single-threaded and describes how its stdout
/// differs from `golden/<bin>.json`: the first differing line (index
/// from 0, got, golden) and both line counts. `None` when they match.
fn golden_mismatch(bin: &str, exe: &str) -> Option<String> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    let out = Command::new(exe)
        .arg("--json")
        .env("RAYON_NUM_THREADS", "1")
        .output()
        .expect("binary runs");
    if !out.status.success() {
        return Some(format!(
            "{bin} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let want = std::fs::read(golden.join(format!("{bin}.json"))).expect("golden file");
    (out.stdout != want).then(|| {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&want);
        let first = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        format!(
            "{bin} --json differs from golden/{bin}.json: first differing line {first:?}, {} lines got, {} lines golden",
            got.lines().count(),
            want.lines().count()
        )
    })
}

/// Diffs every binary and names each one that moved in one failure.
fn assert_match_golden(bins: &[(&str, &str)]) {
    let moved: Vec<String> = bins
        .iter()
        .filter_map(|&(bin, exe)| golden_mismatch(bin, exe))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} figures moved:\n{}",
        moved.len(),
        bins.len(),
        moved.join("\n")
    );
}

#[test]
fn figures_match_their_golden_files() {
    // The 13 figures that are cheap in a debug build (about 7 s
    // together, fig_serve the most); every one that prices through the
    // engine is here, so a count that moves shows up as a diff.
    assert_match_golden(&[
        ("backends", env!("CARGO_BIN_EXE_backends")),
        ("fig3", env!("CARGO_BIN_EXE_fig3")),
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig14", env!("CARGO_BIN_EXE_fig14")),
        ("fig15", env!("CARGO_BIN_EXE_fig15")),
        ("fig16", env!("CARGO_BIN_EXE_fig16")),
        ("fig18", env!("CARGO_BIN_EXE_fig18")),
        ("fig19", env!("CARGO_BIN_EXE_fig19")),
        ("fig_scaling", env!("CARGO_BIN_EXE_fig_scaling")),
        ("fig_serve", env!("CARGO_BIN_EXE_fig_serve")),
        ("hostpath", env!("CARGO_BIN_EXE_hostpath")),
        ("mig", env!("CARGO_BIN_EXE_mig")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
    ]);
}

#[test]
#[ignore = "nightly tier: fig4 and fig17 take ~28 s in a debug build; tests/fault_digests.rs pins them in tier-1"]
fn fault_studies_match_their_golden_files() {
    assert_match_golden(&[
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig17", env!("CARGO_BIN_EXE_fig17")),
    ]);
}

/// Where `got` first differs from `want`: the byte offset and a window
/// of each around it. `None` when they match.
fn first_difference(got: &[u8], want: &[u8]) -> Option<String> {
    if got == want {
        return None;
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .unwrap_or(got.len().min(want.len()));
    let window = |b: &[u8]| {
        String::from_utf8_lossy(&b[at.saturating_sub(60)..(at + 60).min(b.len())]).into_owned()
    };
    Some(format!(
        "first differing byte at offset {at} ({} bytes got, {} golden)\n  got:    {}\n  golden: {}",
        got.len(),
        want.len(),
        window(got),
        window(want)
    ))
}

#[test]
fn trace_exports_match_their_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden/traces");
    let dir = std::env::temp_dir().join(format!("c2m_golden_traces_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    let moved: Vec<String> = [
        ("fig_serve", env!("CARGO_BIN_EXE_fig_serve")),
        ("fig_scaling", env!("CARGO_BIN_EXE_fig_scaling")),
    ]
    .into_iter()
    .filter_map(|(bin, exe)| {
        let path = dir.join(format!("{bin}.json"));
        let out = Command::new(exe)
            .arg("--trace")
            .arg(&path)
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("binary runs");
        if !out.status.success() {
            return Some(format!(
                "{bin} --trace failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let got = std::fs::read(&path).expect("trace written");
        let want = std::fs::read(golden.join(format!("{bin}.json"))).expect("golden trace");
        first_difference(&got, &want)
            .map(|d| format!("{bin} --trace differs from golden/traces/{bin}.json: {d}"))
    })
    .collect();
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    assert!(
        moved.is_empty(),
        "{} of 2 trace exports moved:\n{}",
        moved.len(),
        moved.join("\n")
    );
}

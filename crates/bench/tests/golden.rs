//! The fault studies' full `--json` stdout, byte for byte, against the
//! files in `golden/` (recorded at `RAYON_NUM_THREADS=1`; the bytes do
//! not depend on the thread count).
//!
//! A change that moves these bytes on purpose re-records the files in
//! the same diff: `RAYON_NUM_THREADS=1 cargo run --release -p c2m_bench
//! --bin fig4 -- --json > golden/fig4.json`, and likewise for fig17.

use std::path::Path;
use std::process::Command;

#[test]
#[ignore = "nightly tier: fig4 and fig17 take ~28 s in a debug build; tests/fault_digests.rs pins them in tier-1"]
fn fault_studies_match_their_golden_files() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    for (bin, exe) in [
        ("fig4", env!("CARGO_BIN_EXE_fig4")),
        ("fig17", env!("CARGO_BIN_EXE_fig17")),
    ] {
        let out = Command::new(exe)
            .arg("--json")
            .env("RAYON_NUM_THREADS", "1")
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{bin}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let want = std::fs::read(golden.join(format!("{bin}.json"))).expect("golden file");
        if out.stdout != want {
            let got = String::from_utf8_lossy(&out.stdout);
            let want = String::from_utf8_lossy(&want);
            let first = got
                .lines()
                .zip(want.lines())
                .enumerate()
                .find(|(_, (g, w))| g != w);
            panic!("{bin} --json differs from golden/{bin}.json; first differing line (index from 0, got, golden): {first:?}");
        }
    }
}

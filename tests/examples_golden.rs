//! Every example's stdout, byte for byte, against `golden/examples/`
//! (recorded at `RAYON_NUM_THREADS=1`; the bytes are the same in a
//! debug or release build). A change that moves an example's output on
//! purpose re-records its file in the same diff:
//! `RAYON_NUM_THREADS=1 cargo run --release --example quickstart >
//! golden/examples/quickstart.txt`, and likewise for the others.
//!
//! The test runs the example binaries that `cargo test` builds next to
//! its own binary (`target/<profile>/examples/`), so it needs a plain
//! `cargo test`: a `--test` filter alone builds no examples. It fails on
//! an example binary that is missing, or older than a source file its
//! dep-info lists, instead of reading a stale binary's stdout.

use std::path::{Path, PathBuf};
use std::process::Command;

const EXAMPLES: [&str; 9] = [
    "conv_twn",
    "dna_filtering",
    "fault_tolerant_counting",
    "gcn_aggregation",
    "mig_synthesis",
    "quickstart",
    "serving_runtime",
    "ternary_llm_layer",
    "tracing",
];

/// `target/<profile>/examples`: this test runs from
/// `target/<profile>/deps`.
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test binary path");
    exe.parent()
        .and_then(Path::parent)
        .expect("the test binary sits in target/<profile>/deps")
        .join("examples")
}

/// The first source file, by cargo's dep-info next to the example
/// binary `exe` (`<exe>.d`), that is newer than `exe` or gone: a file
/// cargo would rebuild `exe` for. The dep-info file itself when it is
/// unreadable, and `None` when `exe` is up to date or missing.
fn stale_source(exe: &Path) -> Option<String> {
    let modified = |p: &Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let built = modified(exe)?;
    let dep_info_path = exe.with_extension("d");
    let Ok(dep_info) = std::fs::read_to_string(&dep_info_path) else {
        return Some(dep_info_path.display().to_string());
    };
    // `<exe>: <source> <source> ...`, a space inside a path escaped as `\ `.
    let sources = dep_info
        .lines()
        .next()?
        .split_once(": ")?
        .1
        .replace("\\ ", "\0");
    sources
        .split_whitespace()
        .map(|src| PathBuf::from(src.replace('\0', " ")))
        .find(|src| modified(src).is_none_or(|t| t > built))
        .map(|src| src.display().to_string())
}

/// Runs example `name` single-threaded with its temp dir at `tmp` and
/// describes how its stdout differs from `golden/examples/<name>.txt`:
/// the first differing line (index from 0, got, golden) and both line
/// counts. `None` when they match.
fn golden_mismatch(name: &str, tmp: &Path) -> Option<String> {
    let exe = examples_dir().join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if let Some(src) = stale_source(&exe) {
        return Some(format!(
            "{} is stale ({src} is newer or unreadable): `cargo test` rebuilds the examples, a `--test` filter alone does not",
            exe.display()
        ));
    }
    let out = match Command::new(&exe)
        .env("RAYON_NUM_THREADS", "1")
        .env("TMPDIR", tmp)
        .output()
    {
        Ok(out) => out,
        Err(e) => {
            return Some(format!(
                "cannot run {} ({e}): `cargo test` builds the examples, a `--test` filter alone does not",
                exe.display()
            ))
        }
    };
    if !out.status.success() {
        return Some(format!(
            "{name} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    // The tracing example names the file it wrote in the temp dir; the
    // golden file records it under /tmp.
    let got = String::from_utf8_lossy(&out.stdout).replace(&format!("{}/", tmp.display()), "/tmp/");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/examples");
    let want = std::fs::read_to_string(golden.join(format!("{name}.txt"))).expect("golden file");
    (got != want).then(|| {
        let first = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        format!(
            "{name} differs from golden/examples/{name}.txt: first differing line {first:?}, {} lines got, {} lines golden",
            got.lines().count(),
            want.lines().count()
        )
    })
}

#[test]
fn examples_print_their_golden_stdout() {
    let tmp = std::env::temp_dir().join(format!("c2m_examples_golden_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir is writable");
    let moved: Vec<String> = EXAMPLES
        .iter()
        .filter_map(|name| golden_mismatch(name, &tmp))
        .collect();
    std::fs::remove_dir_all(&tmp).expect("temp dir is removable");
    assert!(
        moved.is_empty(),
        "{} of {} examples moved:\n{}",
        moved.len(),
        EXAMPLES.len(),
        moved.join("\n")
    );
}

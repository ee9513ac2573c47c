//! The output flags of the figure binaries fail with an `error:` line
//! and exit status 1, never a panic, and before any sweep runs.

use std::process::Command;

#[test]
fn bad_output_flags_exit_with_an_error_line() {
    // A regular file: a directory path through it cannot be created.
    let file = std::env::temp_dir().join(format!("c2m_flags_{}", std::process::id()));
    std::fs::write(&file, "not a directory").expect("temp dir is writable");
    let file_str = file.to_str().expect("temp path is UTF-8").to_string();
    let under_file = format!("{file_str}/x.json");
    let cases: [(&str, Vec<&str>); 6] = [
        ("--trace without a value", vec!["--trace"]),
        ("--trace followed by a flag", vec!["--trace", "--json"]),
        ("--trace under a file", vec!["--trace", &under_file]),
        ("--cache-dir without a value", vec!["--cache-dir"]),
        (
            "--cache-dir followed by a flag",
            vec!["--cache-dir", "--json"],
        ),
        ("--cache-dir at a file", vec!["--cache-dir", &file_str]),
    ];
    for (bin, exe) in [
        ("fig_serve", env!("CARGO_BIN_EXE_fig_serve")),
        ("fig_scaling", env!("CARGO_BIN_EXE_fig_scaling")),
    ] {
        for (case, args) in &cases {
            let out = Command::new(exe).args(args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let what = format!("{bin}, {case}: {stderr}");
            assert_eq!(out.status.code(), Some(1), "{what}");
            assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{what}");
            assert!(!stderr.contains("panicked"), "{what}");
            assert!(out.stdout.is_empty(), "{what}: the sweep ran");
        }
    }
    assert!(
        !std::path::Path::new("--json").exists(),
        "a flag became a file"
    );
    std::fs::remove_file(&file).expect("temp file is removable");
}

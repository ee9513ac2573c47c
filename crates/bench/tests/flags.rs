//! A bad command line makes a figure binary exit with status 1 and an
//! `error:` line, never a panic, and before any sweep runs: an output
//! flag without a usable value, or an argument the binary does not read.

use std::process::Command;

/// Runs `exe` with `args` and checks it was turned away before the sweep.
fn assert_rejected(what: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let what = format!("{what}: {stderr}");
    assert_eq!(out.status.code(), Some(1), "{what}");
    assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{what}");
    assert!(!stderr.contains("panicked"), "{what}");
    assert!(out.stdout.is_empty(), "{what}: the sweep ran");
}

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
            assert_rejected(&format!("{bin}, {case}"), exe, args);
        }
    }
    assert!(
        !std::path::Path::new("--json").exists(),
        "a flag became a file"
    );
    std::fs::remove_file(&file).expect("temp file is removable");
}

/// Every figure binary, as `(name, path)`.
const BINARIES: [(&str, &str); 15] = [
    ("backends", env!("CARGO_BIN_EXE_backends")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig8", env!("CARGO_BIN_EXE_fig8")),
    ("fig14", env!("CARGO_BIN_EXE_fig14")),
    ("fig15", env!("CARGO_BIN_EXE_fig15")),
    ("fig16", env!("CARGO_BIN_EXE_fig16")),
    ("fig17", env!("CARGO_BIN_EXE_fig17")),
    ("fig18", env!("CARGO_BIN_EXE_fig18")),
    ("fig19", env!("CARGO_BIN_EXE_fig19")),
    ("fig_scaling", env!("CARGO_BIN_EXE_fig_scaling")),
    ("fig_serve", env!("CARGO_BIN_EXE_fig_serve")),
    ("hostpath", env!("CARGO_BIN_EXE_hostpath")),
    ("mig", env!("CARGO_BIN_EXE_mig")),
    ("table1", env!("CARGO_BIN_EXE_table1")),
];

#[test]
fn unread_arguments_exit_with_an_error_line() {
    // A misspelt `--json` and a stray positional argument, alone and
    // after a flag the binary does read.
    let cases: [&[&str]; 3] = [&["--jsn"], &["stray"], &["--json", "stray"]];
    for (bin, exe) in BINARIES {
        for args in cases {
            assert_rejected(&format!("{bin} {args:?}"), exe, args);
        }
    }
}

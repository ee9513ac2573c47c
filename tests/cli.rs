//! The `c2m` binary treats its flags and input files as untrusted: a
//! malformed value exits 1 with an `error:` line, never with a panic
//! (exit 101) or an abort (exit 134).

use std::process::{Command, Output};

fn c2m(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_c2m"))
        .args(args)
        .output()
        .expect("the c2m binary starts")
}

#[test]
fn malformed_flags_exit_with_an_error_line() {
    let cases: [&[&str]; 10] = [
        &["gemv", "--radix", "3"],
        &["gemv", "--radix", "0"],
        &["gemv", "--radix", "66"],
        &["gemv", "--k", "0"],
        &["gemv", "--n", "0"],
        &["gemv", "--k", "4000000000", "--n", "4000000000"],
        &["plan", "--radix", "3"],
        &["plan", "--radix", "0"],
        &["plan", "--radix", "66"],
        &["radix-sweep", "--max-radix", "66"],
    ];
    for args in cases {
        let out = c2m(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "c2m {args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ")),
            "c2m {args:?}: {stderr}"
        );
    }
}

#[test]
fn a_valid_call_exits_zero() {
    let out = c2m(&["gemv", "--k", "16", "--n", "8", "--radix", "10"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("bit-exact vs reference : true"));
}

#[test]
fn a_deeply_nested_trace_file_exits_with_an_error_line() {
    // 400 KB of `[` overflows the stack of a parser without a depth
    // limit.
    let path = std::env::temp_dir().join(format!("c2m-nested-{}.json", std::process::id()));
    std::fs::write(&path, "[".repeat(400_000)).expect("the temp dir is writable");
    let out = c2m(&[
        "trace",
        "--check",
        path.to_str().expect("a UTF-8 temp path"),
    ]);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{stderr}");
}

//! The `c2m` binary treats its flags as untrusted input: a malformed
//! value exits 1 with an `error:` line, never with a panic (exit 101).

use std::process::{Command, Output};

fn c2m(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_c2m"))
        .args(args)
        .output()
        .expect("the c2m binary starts")
}

#[test]
fn malformed_flags_exit_with_an_error_line() {
    let cases: [&[&str]; 9] = [
        &["gemv", "--radix", "3"],
        &["gemv", "--radix", "0"],
        &["gemv", "--radix", "66"],
        &["gemv", "--k", "0"],
        &["gemv", "--n", "0"],
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

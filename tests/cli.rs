//! The `c2m` binary treats its flags and input files as untrusted: a
//! malformed value exits 1 with an `error:` line, never with a panic
//! (exit 101) or an abort (exit 134).

use count2multiply::trace::{validate_chrome_trace, RecordingSink, TraceSink, Track};
use proptest::prelude::*;
use std::process::{Command, Output};

fn c2m(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_c2m"))
        .args(args)
        .output()
        .expect("the c2m binary starts")
}

#[test]
fn malformed_flags_exit_with_an_error_line() {
    // A valid export, so `trace --check` has only its stray flag to
    // reject.
    let export = std::env::temp_dir().join(format!("c2m-flags-{}.json", std::process::id()));
    std::fs::write(&export, small_export()).expect("the temp dir is writable");
    let export_path = export.to_str().expect("a UTF-8 temp path");
    let out_path = std::env::temp_dir().join(format!("c2m-flags-out-{}.json", std::process::id()));
    let out_path = out_path.to_str().expect("a UTF-8 temp path");
    let cases: [&[&str]; 23] = [
        &["gemv", "--radix", "3"],
        &["gemv", "--radix", "0"],
        &["gemv", "--radix", "66"],
        &["gemv", "--k", "0"],
        &["gemv", "--n", "0"],
        &["gemv", "--k", "4000000000", "--n", "4000000000"],
        &["plan", "--radix", "3"],
        &["plan", "--radix", "0"],
        &["plan", "--radix", "66"],
        // 2^capacity must be a finite f64: past 1023 bits it is not, and
        // past 2^31 it used to wrap to a 1-digit counter.
        &["plan", "--capacity", "0"],
        &["plan", "--capacity", "1024"],
        &["plan", "--capacity", "1100"],
        &["plan", "--capacity", "2147483648"],
        &["plan", "--capacity", "4000000000"],
        &["radix-sweep", "--max-radix", "66"],
        &["radix-sweep", "--max-radix", "1"],
        &["radix-sweep", "--max-radix", "0"],
        // A flag the command does not read, and a flag given twice.
        &["gemv", "--sparsty", "0.9", "--k", "8", "--n", "8"],
        &["gemv", "--k", "8", "--k", "16"],
        &["plan", "--sparsity", "0.5"],
        &["trace", "--check", export_path, "--out", out_path],
        &["trace", "--out", out_path, "--expect", "core"],
        &["experiments", "--k", "8"],
    ];
    for args in cases {
        assert_error_exit(&format!("c2m {args:?}"), &c2m(args));
    }
    let _ = std::fs::remove_file(&export);
    let _ = std::fs::remove_file(out_path);
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
fn plan_reports_a_row_count_past_usize_max_as_a_deficit() {
    // `K · rows per index` overflows `usize`: the plan must neither
    // panic nor wrap around into a fit.
    let k = usize::MAX.to_string();
    for encoding in ["binary", "ternary", "csd8"] {
        let out = c2m(&["plan", "--k", &k, "--encoding", encoding]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{encoding}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains("DOES NOT FIT"), "{encoding}: {stdout}");
    }
    // The widest accepted capacity plans too (its counters alone
    // overflow the D-group).
    let out = c2m(&["plan", "--capacity", "1023"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("DOES NOT FIT"));
}

/// Runs `c2m trace --check` on a temp file holding `contents` (no file
/// at all for `None`). `tag` keeps the paths of concurrently running
/// tests apart.
fn trace_check(tag: &str, contents: Option<&[u8]>) -> Output {
    let path = std::env::temp_dir().join(format!("c2m-{tag}-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    if let Some(bytes) = contents {
        std::fs::write(&path, bytes).expect("the temp dir is writable");
    }
    let out = c2m(&[
        "trace",
        "--check",
        path.to_str().expect("a UTF-8 temp path"),
    ]);
    let _ = std::fs::remove_file(&path);
    out
}

fn assert_error_exit(case: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{case}: {stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("error: ")),
        "{case}: {stderr}"
    );
}

#[test]
fn a_deeply_nested_trace_file_exits_with_an_error_line() {
    // 400 KB of `[` overflows the stack of a parser without a depth
    // limit.
    let out = trace_check("nested", Some("[".repeat(400_000).as_bytes()));
    assert_error_exit("deep nesting", &out);
}

/// A small valid export: a fetch span, and a launch span with a merge
/// round nested inside it.
fn small_export() -> String {
    let sink = RecordingSink::new(16);
    sink.span(Track::dram_fetch(0), "fetch_hit", "dram", 0.0, 10.0);
    sink.span(Track::core(0), "launch", "core", 0.0, 100.0);
    sink.span(Track::core(0), "merge_round", "core", 20.0, 30.0);
    sink.chrome_trace_json()
}

#[test]
fn malformed_trace_files_exit_with_an_error_line() {
    let span = |b: &str, e: &str| {
        format!(
            r#"{{"traceEvents":[{{"name":"x","cat":"core","ph":"B","ts":{b},"pid":2,"tid":0}},{{"ph":"E","ts":{e},"pid":2,"tid":0}}]}}"#
        )
    };
    let cases: Vec<(&str, Option<Vec<u8>>)> = vec![
        ("invalid UTF-8", Some(vec![b'{', 0xFF, 0xFE, b'}'])),
        ("missing file", None),
        ("non-finite ts", Some(span("1e400", "1e400").into_bytes())),
        ("E before its B", Some(span("5", "1").into_bytes())),
        (
            "an event repeating a key",
            Some(
                concat!(
                    r#"{"traceEvents":["#,
                    r#"{"name":"x","cat":"core","ph":"B","ts":1,"pid":2,"tid":0},"#,
                    r#"{"ph":"E","ts":5,"ts":0,"pid":2,"tid":0}]}"#
                )
                .as_bytes()
                .to_vec(),
            ),
        ),
        (
            "child outside its parent",
            Some(
                concat!(
                    r#"{"traceEvents":["#,
                    r#"{"name":"outer","cat":"core","ph":"B","ts":0,"pid":2,"tid":0},"#,
                    r#"{"name":"inner","cat":"core","ph":"B","ts":5,"pid":2,"tid":0},"#,
                    r#"{"ph":"E","ts":10,"pid":2,"tid":0},"#,
                    r#"{"ph":"E","ts":3,"pid":2,"tid":0}]}"#
                )
                .as_bytes()
                .to_vec(),
            ),
        ),
    ];
    for (case, contents) in &cases {
        assert_error_exit(case, &trace_check("malformed", contents.as_deref()));
    }

    // Every proper byte-prefix of a valid export is malformed.
    let export = small_export();
    let out = trace_check("prefix", Some(export.as_bytes()));
    assert_eq!(
        out.status.code(),
        Some(0),
        "the whole export is valid: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for len in 0..export.len() {
        let case = format!(
            "the first {len} of {} bytes of a valid export",
            export.len()
        );
        assert_error_exit(
            &case,
            &trace_check("prefix", Some(&export.as_bytes()[..len])),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random byte flips, insertions and deletions of a valid export
    /// come back as a result, never a panic: a UTF-8 mutant from
    /// `validate_chrome_trace`, any other from the CLI's read path as an
    /// `error:` line.
    #[test]
    fn mutated_exports_are_checked_without_a_panic(
        edits in prop::collection::vec((0u8..3, any::<u16>(), 1u8..=255), 1..6),
    ) {
        let mut bytes = small_export().into_bytes();
        for &(op, at, byte) in &edits {
            let at = usize::from(at) % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] ^= byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        match String::from_utf8(bytes) {
            Ok(text) => {
                let _ = validate_chrome_trace(&text);
            }
            Err(e) => assert_error_exit(
                &format!("non-UTF-8 mutant {edits:?}"),
                &trace_check("mutant", Some(e.as_bytes())),
            ),
        }
    }
}

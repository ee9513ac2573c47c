//! `c2m` — command-line front end to the Count2Multiply simulator.
//!
//! ```text
//! c2m plan   [--radix R] [--capacity BITS] [--k K] [--n N] [--subarrays S]
//!            [--encoding binary|ternary|csd8]
//! c2m gemv   [--k K] [--n N] [--sparsity S] [--radix R] [--seed SEED]
//! c2m radix-sweep [--max-radix R]
//! c2m trace  --out FILE [--metrics FILE] [--requests N] [--tenants T]
//! c2m trace  --check FILE [--expect dram,core,serve]
//! c2m experiments
//! ```
//!
//! `plan` sizes a kernel against the Table 2 DRAM geometry, `gemv` runs
//! a bit-accurate ternary GEMV of at most 2²⁴ weights (`K·N`, see
//! `GEMV_MAX_CELLS`) and reports command counts and projected latency,
//! `radix-sweep` reproduces the Fig. 8 cost curves at small
//! scale, `trace` records a small serving workload into a
//! Chrome-trace/Perfetto JSON (or validates an existing one), and
//! `experiments` lists the paper-artefact bench binaries.

use count2multiply::arch::engine::{C2mEngine, EngineConfig};
use count2multiply::arch::kernels::{ternary_gemv, KernelConfig};
use count2multiply::arch::matrix::TernaryMatrix;
use count2multiply::arch::placement::{self, CounterSpec, KernelShape, MaskEncoding};
use count2multiply::dram::DramConfig;
use count2multiply::jc::codec::JohnsonCode;
use count2multiply::jc::cost;
use count2multiply::serve::{open_loop, OpenLoopConfig, ServeConfig, ServeRuntime, TenantSpec};
use count2multiply::trace::{validate_chrome_trace, RecordingSink};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{}`", args[i]))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        if flags.insert(key.to_string(), value.clone()).is_some() {
            return Err(format!("--{key} given twice"));
        }
        i += 2;
    }
    Ok(flags)
}

/// Rejects any flag that `cmd` does not read, so a misspelt flag is an
/// error instead of a run on the default it meant to replace.
fn reads_only(flags: &BTreeMap<String, String>, cmd: &str, reads: &[&str]) -> Result<(), String> {
    match flags.keys().find(|k| !reads.contains(&k.as_str())) {
        None => Ok(()),
        Some(unread) => Err(format!("`{cmd}` does not read --{unread}")),
    }
}

fn get<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key}: cannot parse `{v}`")),
    }
}

/// A Johnson-digit radix flag: even and within what the codec supports.
fn get_radix(flags: &BTreeMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    let radix: usize = get(flags, key, default)?;
    if !(2..=JohnsonCode::MAX_RADIX).contains(&radix) || !radix.is_multiple_of(2) {
        return Err(format!(
            "--{key} must be an even number in 2..={}, got {radix}",
            JohnsonCode::MAX_RADIX
        ));
    }
    Ok(radix)
}

/// A kernel dimension flag: at least 1.
fn get_dim(flags: &BTreeMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    let dim: usize = get(flags, key, default)?;
    if dim == 0 {
        return Err(format!("--{key} must be at least 1"));
    }
    Ok(dim)
}

fn cmd_plan(flags: &BTreeMap<String, String>) -> Result<(), String> {
    reads_only(
        flags,
        "plan",
        &["radix", "capacity", "k", "n", "subarrays", "encoding"],
    )?;
    let radix = get_radix(flags, "radix", 4)?;
    let capacity: u32 = get(flags, "capacity", 64)?;
    if !(1..=cost::MAX_CAPACITY_BITS).contains(&capacity) {
        return Err(format!(
            "--capacity must be in 1..={} bits, got {capacity}",
            cost::MAX_CAPACITY_BITS
        ));
    }
    let k = get_dim(flags, "k", 512)?;
    let n = get_dim(flags, "n", 8192)?;
    let subarrays: usize = get(flags, "subarrays", 1)?;
    let encoding = match flags.get("encoding").map(String::as_str) {
        None | Some("ternary") => MaskEncoding::Ternary,
        Some("binary") => MaskEncoding::Binary,
        Some("csd8") => MaskEncoding::csd_for_precision(8),
        Some(other) => return Err(format!("unknown encoding `{other}`")),
    };
    let cfg = DramConfig::ddr5_4400();
    let spec = CounterSpec {
        radix,
        capacity_bits: capacity,
        ..CounterSpec::paper_default()
    };
    let shape = KernelShape {
        k,
        n_out: n,
        encoding,
    };
    println!("placement for K={k}, N={n}, radix {radix}, {capacity}-bit capacity:");
    match placement::plan(&cfg, &spec, &shape) {
        Ok(p) => {
            println!("  counter rows / column : {}", spec.counter_rows());
            println!("  scratch rows          : {}", spec.scratch_rows());
            println!(
                "  D-group rows used     : {} / {}",
                p.rows_used, p.rows_available
            );
            println!(
                "  row utilisation       : {:.1}%",
                p.row_utilisation() * 100.0
            );
            println!("  columns per subarray  : {}", p.columns_per_subarray);
            println!("  subarrays needed      : {}", p.subarrays_needed);
            // "Concurrent subarrays" comes from the engine's real shard
            // plan (channels x ranks x granted SALP streams), not from
            // the placement heuristic: the engine clamps the request to
            // the channel-gate stream cap before any shard exists.
            let mut ecfg = EngineConfig::c2m(16);
            ecfg.subarrays = subarrays;
            let engine = C2mEngine::builder(ecfg)
                .try_build()
                .map_err(|e| e.to_string())?;
            let topo = engine.topology();
            let shard_plan = engine.planner().plan_inner(k);
            println!(
                "  SALP streams / bank   : {} (requested {subarrays}, cap {})",
                engine.salp_streams(),
                engine.salp_stream_limit()
            );
            println!(
                "  shard slots           : {} ({}ch x {}rk x {} streams)",
                topo.shard_slots(),
                topo.channels,
                topo.ranks,
                topo.subarrays
            );
            println!(
                "  concurrent subarrays  : {}",
                shard_plan.units_used() * topo.banks
            );
        }
        Err(deficit) => {
            let max_k = placement::max_k_per_subarray(&cfg, &spec, encoding);
            println!("  DOES NOT FIT: {deficit} rows over budget");
            println!("  split K: at most {max_k} reduction rows per subarray");
        }
    }
    Ok(())
}

/// The largest `K·N` that `gemv` accepts: it holds every weight as a
/// bit in host memory, so a larger shape is refused with an error
/// instead of failing its allocation. The default shape is 128 × 64.
const GEMV_MAX_CELLS: usize = 1 << 24;

fn cmd_gemv(flags: &BTreeMap<String, String>) -> Result<(), String> {
    reads_only(flags, "gemv", &["k", "n", "sparsity", "radix", "seed"])?;
    let k = get_dim(flags, "k", 128)?;
    let n = get_dim(flags, "n", 64)?;
    if k.checked_mul(n).is_none_or(|cells| cells > GEMV_MAX_CELLS) {
        return Err(format!(
            "--k × --n must be at most {GEMV_MAX_CELLS} weights, got {k} × {n}"
        ));
    }
    let sparsity: f64 = get(flags, "sparsity", 0.0)?;
    let radix = get_radix(flags, "radix", 4)?;
    let seed: u64 = get(flags, "seed", 42)?;
    if !(0.0..=1.0).contains(&sparsity) {
        return Err("--sparsity must be in [0, 1]".into());
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let z = TernaryMatrix::random(k, n, 0.7, &mut rng);
    let x: Vec<i64> = (0..k)
        .map(|_| {
            if rng.gen_bool(sparsity) {
                0
            } else {
                rng.gen_range(-128i64..128)
            }
        })
        .collect();
    let cfg = KernelConfig {
        radix,
        ..KernelConfig::compact()
    };
    let result = ternary_gemv(&cfg, &x, &z);
    let reference = z.reference_gemv(&x);
    let exact = result
        .y
        .iter()
        .zip(&reference)
        .all(|(g, w)| *g == i128::from(*w));
    println!("ternary GEMV K={k} N={n} radix {radix} sparsity {sparsity:.2}:");
    println!("  bit-exact vs reference : {exact}");
    println!("  increment sequences    : {}", result.stats.increments);
    println!("  Ambit macro commands   : {}", result.stats.ambit_ops);

    // Project at module scale: 16 banks, one subarray each.
    let engine = C2mEngine::builder(EngineConfig::c2m(16)).build();
    let report = engine.ternary_gemv(&x, n);
    println!(
        "  projected on Table 2   : {:.3} ms, {:.1} GOPS, {:.2} GOPS/W",
        report.elapsed_ms(),
        report.gops(),
        report.gops_per_watt()
    );
    Ok(())
}

fn cmd_radix_sweep(flags: &BTreeMap<String, String>) -> Result<(), String> {
    reads_only(flags, "radix-sweep", &["max-radix"])?;
    let max_radix: usize = get(flags, "max-radix", 20)?;
    if !(2..=JohnsonCode::MAX_RADIX).contains(&max_radix) {
        return Err(format!(
            "--max-radix must be in 2..={}, got {max_radix}",
            JohnsonCode::MAX_RADIX
        ));
    }
    println!("average AAP commands to accumulate one uniform 8-bit input");
    println!("(64-bit capacity, k-ary increments + full rippling — Fig. 8a):\n");
    println!("{:>6} | {:>10}", "radix", "AAP/input");
    for radix in (2..=max_radix).step_by(2) {
        let digits = cost::digits_for_capacity(radix, 64);
        let ops = cost::average_over_uniform_u8(|v| cost::kary_full_ripple_ops(v, radix, digits));
        println!("{radix:>6} | {ops:>10.1}");
    }
    println!(
        "\nRCA reference: {} AAP/input (64-bit)",
        cost::rca_add_ops(64)
    );
    Ok(())
}

/// `c2m trace --check FILE [--expect dram,core,serve]`: validate an
/// existing Chrome-trace JSON (the CI smoke path).
fn cmd_trace_check(flags: &BTreeMap<String, String>, path: &str) -> Result<(), String> {
    reads_only(flags, "trace --check", &["check", "expect"])?;
    let json = std::fs::read_to_string(path).map_err(|e| format!("--check {path}: {e}"))?;
    let check = validate_chrome_trace(&json)?;
    if let Some(expect) = flags.get("expect") {
        for want in expect.split(',').filter(|w| !w.is_empty()) {
            if !check.cats.iter().any(|c| c == want) {
                return Err(format!(
                    "trace has no `{want}` events (categories present: {})",
                    check.cats.join(", ")
                ));
            }
        }
    }
    println!(
        "{path}: valid Chrome trace — {} events, {} spans, {} tracks, categories [{}]",
        check.events,
        check.spans,
        check.tracks,
        check.cats.join(", ")
    );
    Ok(())
}

/// `c2m trace --out FILE`: serve a small open-loop workload with a
/// recording sink attached to every layer, export the Perfetto JSON
/// (and optionally the flat metrics JSON), and print the per-class
/// latency breakdown the trace explains.
fn cmd_trace(flags: &BTreeMap<String, String>) -> Result<(), String> {
    if let Some(path) = flags.get("check") {
        return cmd_trace_check(flags, path);
    }
    reads_only(flags, "trace", &["out", "metrics", "requests", "tenants"])?;
    let out = flags
        .get("out")
        .ok_or("trace needs --out FILE (record) or --check FILE (validate)")?;
    let requests: usize = get(flags, "requests", 24)?;
    let tenants: usize = get(flags, "tenants", 2)?;
    if requests == 0 || tenants == 0 {
        return Err("--requests and --tenants must be positive".into());
    }

    let sink = std::sync::Arc::new(RecordingSink::default());
    let engine = C2mEngine::builder(EngineConfig::c2m(16)).build();
    let cfg = ServeConfig {
        max_batch: 4,
        window_ns: 1e6,
        ..ServeConfig::default()
    };
    let runtime = ServeRuntime::new(engine, cfg).with_trace(sink.clone());
    let reqs = open_loop(&OpenLoopConfig {
        tenants: vec![TenantSpec::new(512, 256); tenants],
        requests,
        mean_interarrival_ns: 2_000.0,
        seed: 7,
    });
    let report = runtime.run(&reqs);

    let json = sink.chrome_trace_json();
    let check = validate_chrome_trace(&json)?;
    std::fs::write(out, &json).map_err(|e| format!("--out {out}: {e}"))?;
    println!(
        "{out}: {} events, {} spans, {} tracks, categories [{}] ({} ring-evicted)",
        check.events,
        check.spans,
        check.tracks,
        check.cats.join(", "),
        sink.dropped()
    );
    if let Some(mpath) = flags.get("metrics") {
        std::fs::write(mpath, sink.metrics_json())
            .map_err(|e| format!("--metrics {mpath}: {e}"))?;
        println!("{mpath}: flat metrics JSON");
    }

    println!(
        "{requests} requests over {tenants} tenants: {} batches, p99 {:.1} us",
        report.batches.len(),
        report.p99_ns() / 1e3
    );
    println!("latency breakdown (mean queue + plan + reload + exec = total, us):");
    for row in report.latency_breakdown() {
        let m = row.mean;
        println!(
            "  class {}: {:>3} reqs | {:.1} + {:.1} + {:.1} + {:.1} = {:.1} | p99 total {:.1}",
            row.priority,
            row.count,
            m.queue_ns / 1e3,
            m.plan_ns / 1e3,
            m.reload_ns / 1e3,
            m.exec_ns / 1e3,
            m.total_ns / 1e3,
            row.p99.total_ns / 1e3
        );
    }
    Ok(())
}

fn cmd_experiments(flags: &BTreeMap<String, String>) -> Result<(), String> {
    reads_only(flags, "experiments", &[])?;
    println!("paper-artefact bench binaries (cargo run --release -p c2m_bench --bin <id>):\n");
    for (id, what) in [
        ("fig3", "input value distributions (DNA, BERT embeddings)"),
        ("fig4", "fault-rate motivation: RMSE + DNA filter F1"),
        ("fig8", "unit vs k-ary vs IARM AAP cost curves"),
        ("table1", "FR-check error/detect rates + op counts"),
        ("fig14", "GEMV/GEMM throughput vs GPU (Tab. 3 shapes)"),
        ("fig15", "bank scaling: SIMDRAM vs C2M, 1/4/16 banks"),
        ("fig16", "sparsity sweep on V0/M0"),
        ("fig17", "accuracy under CIM faults (DNA, BERT proxy)"),
        ("fig18", "full workloads incl. protection overhead"),
        ("fig19", "counter storage capacity vs radix"),
        ("backends", "counting cost per CIM technology (§4.6)"),
        ("mig", "MIG synthesis sizes and lowering costs (§4.2)"),
        (
            "hostpath",
            "FR-FCFS host read path vs CIM issue rate (§5.1)",
        ),
        (
            "fig_scaling",
            "channel/rank scaling, Ambit vs FCDRAM dispatch",
        ),
        (
            "fig_serve",
            "serving runtime: batch window x topology x mix",
        ),
    ] {
        println!("  {id:<9} {what}");
    }
    Ok(())
}

fn usage() -> &'static str {
    "usage: c2m <plan|gemv|radix-sweep|trace|experiments> [--flag value]...\n\
     try `c2m experiments` for the paper-artefact harness"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "plan" => cmd_plan(&flags),
        "gemv" => cmd_gemv(&flags),
        "radix-sweep" => cmd_radix_sweep(&flags),
        "trace" => cmd_trace(&flags),
        "experiments" => cmd_experiments(&flags),
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_flags_accepts_pairs() {
        let args: Vec<String> = ["--k", "64", "--sparsity", "0.5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f["k"], "64");
        assert_eq!(f["sparsity"], "0.5");
    }

    #[test]
    fn parse_flags_rejects_bare_values() {
        let args = vec!["64".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_missing_value() {
        let args = vec!["--k".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn get_applies_defaults_and_parses() {
        let f = flags(&[("k", "12")]);
        assert_eq!(get(&f, "k", 5usize).unwrap(), 12);
        assert_eq!(get(&f, "n", 7usize).unwrap(), 7);
        assert!(get(&f, "k", 0.0f64).is_ok());
    }

    #[test]
    fn get_reports_parse_failures() {
        let f = flags(&[("k", "banana")]);
        assert!(get(&f, "k", 5usize).is_err());
    }

    #[test]
    fn gemv_bounds_its_weight_count() {
        let shape = |k: usize, n: usize| flags(&[("k", &k.to_string()), ("n", &n.to_string())]);
        assert!(cmd_gemv(&shape(GEMV_MAX_CELLS / 64 + 1, 64)).is_err());
        assert!(cmd_gemv(&shape(usize::MAX, 2)).is_err());
        assert!(cmd_gemv(&shape(16, 8)).is_ok());
    }

    #[test]
    fn gemv_rejects_bad_sparsity() {
        let f = flags(&[("sparsity", "1.5")]);
        assert!(cmd_gemv(&f).is_err());
    }

    #[test]
    fn plan_and_sweep_run_on_defaults() {
        assert!(cmd_plan(&flags(&[("k", "64"), ("n", "128")])).is_ok());
        assert!(cmd_radix_sweep(&flags(&[("max-radix", "6")])).is_ok());
    }

    #[test]
    fn trace_records_and_validates_round_trip() {
        let out = std::env::temp_dir().join("c2m_trace_cli_test.json");
        let out_s = out.to_string_lossy().into_owned();
        let record = flags(&[("out", out_s.as_str()), ("requests", "8")]);
        assert!(cmd_trace(&record).is_ok());
        let check = flags(&[("check", out_s.as_str()), ("expect", "dram,core,serve")]);
        assert!(cmd_trace(&check).is_ok());
        let absent = flags(&[("check", out_s.as_str()), ("expect", "gpu")]);
        assert!(cmd_trace(&absent).is_err());
        let _ = std::fs::remove_file(out);
        assert!(
            cmd_trace(&flags(&[("requests", "8")])).is_err(),
            "no --out/--check"
        );
    }

    #[test]
    fn plan_accepts_salp_requests_and_rejects_bad_geometry() {
        assert!(cmd_plan(&flags(&[("k", "64"), ("n", "128"), ("subarrays", "8")])).is_ok());
        assert!(cmd_plan(&flags(&[("k", "64"), ("n", "128"), ("subarrays", "0")])).is_err());
        assert!(cmd_plan(&flags(&[("k", "64"), ("n", "128"), ("subarrays", "1000")])).is_err());
    }
}

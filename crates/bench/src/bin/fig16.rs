//! Fig. 16 — sparsity sweep on V0 (GEMV) and M0 (GEMM): latency
//! (including GPU transfer) and throughput for GPU, SIMDRAM:16, C2M:16.
//!
//! Count2Multiply skips zero inputs (and zero digits), so its latency
//! falls with sparsity while the dense GPU/SIMDRAM baselines are flat.
//! The paper's crossovers: C2M overtakes GPU latency past ~40 % sparsity
//! on GEMV and ~99.6 % on GEMM; throughput crosses at 0 % (GEMV) and
//! ~99.1 % (GEMM).

use c2m_baselines::{GpuModel, SimdramEngine};
use c2m_bench::{eng, fail, header, json_only, maybe_json};
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_workloads::llama::{GEMM_SHAPES, GEMV_SHAPES};
use c2m_workloads::sparsity::{fig16_sweep, sparse_int8_stream};
use serde::Serialize;

#[derive(Serialize)]
struct SweepRow {
    sparsity: f64,
    gpu_ms: f64,
    simdram_ms: f64,
    c2m_ms: f64,
    gpu_gops: f64,
    simdram_gops: f64,
    c2m_gops: f64,
}

fn sweep(shape: c2m_workloads::llama::GemmShape) -> Vec<SweepRow> {
    let gpu = GpuModel::rtx_3090_ti();
    let simdram = SimdramEngine::x(16);
    let c2m = C2mEngine::builder(EngineConfig::c2m(16)).build();
    let g = gpu.gemm(shape.m, shape.n, shape.k);
    let s = simdram.ternary_gemm(shape.m, shape.n, shape.k);
    let nominal = shape.useful_ops() as f64;
    fig16_sweep()
        .into_iter()
        .map(|sp| {
            let x = sparse_int8_stream(shape.k, sp, 0x516);
            let c = if shape.is_gemv() {
                c2m.ternary_gemv(&x, shape.n)
            } else {
                c2m.ternary_gemm(shape.m, shape.n, &x)
            };
            SweepRow {
                sparsity: sp,
                gpu_ms: g.total_ns / 1e6,
                simdram_ms: s.elapsed_ms(),
                c2m_ms: c.elapsed_ms(),
                // End-to-end throughput, consistent with the
                // transfer-inclusive latency this figure reports.
                gpu_gops: nominal / g.total_ns,
                simdram_gops: nominal / s.elapsed_ns,
                c2m_gops: nominal / c.elapsed_ns,
            }
        })
        .collect()
}

fn crossover(rows: &[SweepRow], f: impl Fn(&SweepRow) -> bool) -> Option<f64> {
    rows.iter().find(|r| f(r)).map(|r| r.sparsity)
}

fn print_rows(label: &str, rows: &[SweepRow]) {
    println!("\n{label}");
    println!(
        "{:>9} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "sparsity", "GPU ms", "SIM ms", "C2M ms", "GPU gops", "SIM gops", "C2M gops"
    );
    for r in rows {
        println!(
            "{:>8.1}% | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
            r.sparsity * 100.0,
            eng(r.gpu_ms),
            eng(r.simdram_ms),
            eng(r.c2m_ms),
            eng(r.gpu_gops),
            eng(r.simdram_gops),
            eng(r.c2m_gops),
        );
    }
}

fn main() {
    json_only("fig16").unwrap_or_else(|e| fail(&e));
    header("fig16", "Sparsity sweep: V0 (GEMV) and M0 (GEMM)");
    let v = sweep(GEMV_SHAPES[0]);
    let m = sweep(GEMM_SHAPES[0]);
    print_rows("(left) V0 vector-matrix multiply", &v);
    print_rows("(right) M0 matrix-matrix multiply", &m);

    let v_lat = crossover(&v, |r| r.c2m_ms <= r.gpu_ms);
    let v_thr = crossover(&v, |r| r.c2m_gops >= r.gpu_gops);
    let m_lat = crossover(&m, |r| r.c2m_ms <= r.gpu_ms);
    let m_thr = crossover(&m, |r| r.c2m_gops >= r.gpu_gops);
    println!("\ncrossovers (C2M overtakes GPU):");
    println!(
        "  V0 latency:    {:?} (paper ~40%)",
        v_lat.map(|s| s * 100.0)
    );
    println!(
        "  V0 throughput: {:?} (paper: from dense)",
        v_thr.map(|s| s * 100.0)
    );
    println!(
        "  M0 latency:    {:?} (paper ~99.6%)",
        m_lat.map(|s| s * 100.0)
    );
    println!(
        "  M0 throughput: {:?} (paper ~99.1%)",
        m_thr.map(|s| s * 100.0)
    );
    maybe_json(&(v, m));
}

//! Fig. 15 — in-DRAM designs across bank counts (1 / 4 / 16):
//! latency of SIMDRAM:X and throughput of C2M:X on the Table 3 shapes.

use c2m_baselines::SimdramEngine;
use c2m_bench::{eng, fail, geomean, header, json_only, maybe_json};
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_workloads::distributions::int8_embeddings;
use c2m_workloads::llama::all_shapes;
use serde::Serialize;

#[derive(Serialize)]
struct Fig15Row {
    id: String,
    simdram_ms: [f64; 3],
    c2m_ms: [f64; 3],
    c2m_gops: [f64; 3],
    speedup_16: f64,
}

fn main() {
    json_only("fig15").unwrap_or_else(|e| fail(&e));
    header(
        "fig15",
        "DRAM bank scaling: SIMDRAM:X latency, C2M:X throughput",
    );
    let banks = [1usize, 4, 16];

    println!(
        "\n{:>4} | {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9} | {:>8}",
        "id",
        "SIM:1 ms",
        "SIM:4 ms",
        "SIM:16 ms",
        "C2M:1 ms",
        "C2M:4 ms",
        "C2M:16 ms",
        "gops:1",
        "gops:4",
        "gops:16",
        "C2M/SIM"
    );
    let mut rows = Vec::new();
    for shape in all_shapes() {
        let x = int8_embeddings(shape.k, 0xF15 + shape.k as u64);
        let mut s_ms = [0.0; 3];
        let mut c_ms = [0.0; 3];
        let mut c_gops = [0.0; 3];
        for (i, &b) in banks.iter().enumerate() {
            let s = SimdramEngine::x(b).ternary_gemm(shape.m, shape.n, shape.k);
            let e = C2mEngine::builder(EngineConfig::c2m(b)).build();
            let c = if shape.is_gemv() {
                e.ternary_gemv(&x, shape.n)
            } else {
                e.ternary_gemm(shape.m, shape.n, &x)
            };
            s_ms[i] = s.elapsed_ms();
            c_ms[i] = c.elapsed_ms();
            c_gops[i] = c.gops();
        }
        let row = Fig15Row {
            id: shape.id.to_string(),
            simdram_ms: s_ms,
            c2m_ms: c_ms,
            c2m_gops: c_gops,
            speedup_16: s_ms[2] / c_ms[2],
        };
        println!(
            "{:>4} | {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9} | {:>8}",
            row.id,
            eng(row.simdram_ms[0]),
            eng(row.simdram_ms[1]),
            eng(row.simdram_ms[2]),
            eng(row.c2m_ms[0]),
            eng(row.c2m_ms[1]),
            eng(row.c2m_ms[2]),
            eng(row.c2m_gops[0]),
            eng(row.c2m_gops[1]),
            eng(row.c2m_gops[2]),
            eng(row.speedup_16),
        );
        rows.push(row);
    }

    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup_16).collect();
    println!(
        "\nC2M over SIMDRAM at 16 banks: geomean {:.2}x, max {:.2}x (paper: 2x geomean, up to 10x)",
        geomean(&speedups),
        speedups.iter().cloned().fold(0.0, f64::max)
    );
    maybe_json(&rows);
}

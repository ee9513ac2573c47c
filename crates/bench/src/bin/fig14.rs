//! Fig. 14 — ternary GEMM/GEMV throughput, throughput/W and
//! throughput/mm² for SIMDRAM:16 and C2M:16, normalised to the GPU.

use c2m_baselines::{GpuModel, SimdramEngine};
use c2m_bench::{eng, fail, geomean, header, json_only, maybe_json};
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_workloads::distributions::int8_embeddings;
use c2m_workloads::llama::all_shapes;
use serde::Serialize;

#[derive(Serialize)]
struct Fig14Row {
    id: String,
    simdram_gops: f64,
    c2m_gops: f64,
    gpu_gops: f64,
    simdram_gops_rel: f64,
    c2m_gops_rel: f64,
    simdram_gpw_rel: f64,
    c2m_gpw_rel: f64,
    simdram_gpa_rel: f64,
    c2m_gpa_rel: f64,
}

fn main() {
    json_only("fig14").unwrap_or_else(|e| fail(&e));
    header(
        "fig14",
        "Ternary GEMM/GEMV vs GPU (normalised throughput metrics)",
    );
    let gpu = GpuModel::rtx_3090_ti();
    let simdram = SimdramEngine::x(16);
    let c2m = C2mEngine::builder(EngineConfig::c2m(16)).build();

    println!(
        "\n{:>4} | {:>10} {:>10} {:>10} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "id",
        "SIM gops",
        "C2M gops",
        "GPU gops",
        "SIM/GPU",
        "C2M/GPU",
        "SIM gpw",
        "C2M gpw",
        "SIM gpa",
        "C2M gpa"
    );
    let mut rows = Vec::new();
    for shape in all_shapes() {
        // Representative int8 input row (Fig. 3b distribution).
        let x = int8_embeddings(shape.k, 0xF14 + shape.k as u64);
        let s = simdram.ternary_gemm(shape.m, shape.n, shape.k);
        let c = if shape.is_gemv() {
            c2m.ternary_gemv(&x, shape.n)
        } else {
            c2m.ternary_gemm(shape.m, shape.n, &x)
        };
        let g = gpu.gemm(shape.m, shape.n, shape.k);
        let row = Fig14Row {
            id: shape.id.to_string(),
            simdram_gops: s.gops(),
            c2m_gops: c.gops(),
            gpu_gops: g.gops(),
            simdram_gops_rel: s.gops() / g.gops(),
            c2m_gops_rel: c.gops() / g.gops(),
            simdram_gpw_rel: s.gops_per_watt() / gpu.gops_per_watt(&g),
            c2m_gpw_rel: c.gops_per_watt() / gpu.gops_per_watt(&g),
            simdram_gpa_rel: s.gops_per_mm2() / gpu.gops_per_mm2(&g),
            c2m_gpa_rel: c.gops_per_mm2() / gpu.gops_per_mm2(&g),
        };
        println!(
            "{:>4} | {:>10} {:>10} {:>10} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
            row.id,
            eng(row.simdram_gops),
            eng(row.c2m_gops),
            eng(row.gpu_gops),
            eng(row.simdram_gops_rel),
            eng(row.c2m_gops_rel),
            eng(row.simdram_gpw_rel),
            eng(row.c2m_gpw_rel),
            eng(row.simdram_gpa_rel),
            eng(row.c2m_gpa_rel),
        );
        rows.push(row);
    }

    let gops_gain = geomean(
        &rows
            .iter()
            .map(|r| r.c2m_gops / r.simdram_gops)
            .collect::<Vec<_>>(),
    );
    let gpw_gain = geomean(
        &rows
            .iter()
            .map(|r| r.c2m_gpw_rel / r.simdram_gpw_rel)
            .collect::<Vec<_>>(),
    );
    let gpa_gain = geomean(
        &rows
            .iter()
            .map(|r| r.c2m_gpa_rel / r.simdram_gpa_rel)
            .collect::<Vec<_>>(),
    );
    println!(
        "\nC2M over SIMDRAM (geomean): {gops_gain:.2}x GOPS, {gpw_gain:.2}x GOPS/W, {gpa_gain:.2}x GOPS/mm²"
    );
    println!("paper: GPU wins dense GEMM; CIM designs lead on GOPS/W; C2M > SIMDRAM throughout");
    maybe_json(&rows);
}

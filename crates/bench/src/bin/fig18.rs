//! Fig. 18 — full-workload comparison including protection overhead:
//! execution time, throughput/W and throughput/mm² for SIMDRAM:16,
//! C2M:16, C2M protected (detection) and C2M protected + correction.

use c2m_baselines::SimdramEngine;
use c2m_bench::{eng, fail, header, json_only, maybe_json};
use c2m_core::engine::{C2mEngine, EngineConfig};
use c2m_dram::ExecutionReport;
use c2m_workloads::bertproxy::bert_attention_gemms;
use c2m_workloads::distributions::{int8_embeddings, token_repetitions};
use c2m_workloads::gcn::pubmed;
use c2m_workloads::llama::GemmShape;
use c2m_workloads::sparsity::sparse_int8_stream;
use c2m_workloads::twn::{lenet, vgg13, vgg16};
use serde::Serialize;

/// One benchmark: a list of GEMM shapes plus an input generator tag.
struct Workload {
    name: &'static str,
    gemms: Vec<GemmShape>,
    input: InputKind,
}

enum InputKind {
    /// Fig. 3b embeddings.
    Int8,
    /// Fig. 3a narrow counts.
    Counts,
    /// Binary adjacency at the given sparsity (GCN aggregation).
    BinarySparse(f64),
}

fn workloads() -> Vec<Workload> {
    let conv = |name: &'static str, layers: Vec<c2m_workloads::twn::ConvLayer>| Workload {
        name,
        gemms: layers
            .iter()
            .map(c2m_workloads::twn::ConvLayer::gemm)
            .collect(),
        input: InputKind::Int8,
    };
    vec![
        conv("LeNET", lenet()),
        conv("VGG13", vgg13()),
        conv("VGG16", vgg16()),
        Workload {
            name: "BERT",
            gemms: bert_attention_gemms()
                .into_iter()
                .map(|(id, m, n, k)| GemmShape {
                    id,
                    model: "BERT",
                    m,
                    n,
                    k,
                })
                .collect(),
            input: InputKind::Int8,
        },
        Workload {
            name: "DNA filt",
            // 100k reads x (96 k-mer tokens each) against 65 536 genome
            // bins: masked accumulation of repetition counts.
            gemms: vec![GemmShape {
                id: "dna",
                model: "GRIM",
                m: 100_000,
                n: 65_536,
                k: 96,
            }],
            input: InputKind::Counts,
        },
        Workload {
            name: "GCN",
            // PubMed aggregation A·X: inputs are adjacency bits.
            gemms: vec![GemmShape {
                id: "agg",
                model: "PubMed",
                m: pubmed::NODES,
                n: pubmed::FEATURES,
                k: pubmed::NODES,
            }],
            input: InputKind::BinarySparse(pubmed::adjacency_sparsity()),
        },
        Workload {
            name: "GEMV",
            gemms: vec![c2m_workloads::llama::GEMV_SHAPES[2]],
            input: InputKind::Int8,
        },
        Workload {
            name: "GEMM",
            gemms: vec![c2m_workloads::llama::GEMM_SHAPES[2]],
            input: InputKind::Int8,
        },
    ]
}

fn input_row(kind: &InputKind, k: usize, seed: u64) -> Vec<i64> {
    match kind {
        InputKind::Int8 => int8_embeddings(k, seed),
        InputKind::Counts => token_repetitions(k, seed),
        InputKind::BinarySparse(s) => sparse_int8_stream(k, *s, seed)
            .into_iter()
            .map(|v| i64::from(v != 0))
            .collect(),
    }
}

/// Accumulates one launch's report into the workload total: times,
/// energies, operations and commands add launch after launch.
fn accumulate(total: &mut ExecutionReport, r: &ExecutionReport) {
    total.elapsed_ns += r.elapsed_ns;
    total.energy_nj += r.energy_nj;
    total.useful_ops += r.useful_ops;
    total.area_mm2 = r.area_mm2;
    total.stats.merge(&r.stats);
}

fn empty_total() -> ExecutionReport {
    ExecutionReport {
        elapsed_ns: 0.0,
        stats: c2m_dram::CommandStats::default(),
        energy_nj: 0.0,
        useful_ops: 0,
        area_mm2: 0.0,
        cache: c2m_dram::CacheCounters::default(),
    }
}

fn run(engine: &C2mEngine, w: &Workload) -> ExecutionReport {
    let mut total = empty_total();
    for (i, g) in w.gemms.iter().enumerate() {
        let x = input_row(&w.input, g.k, 0xF18 + i as u64);
        let r = if g.is_gemv() {
            engine.ternary_gemv(&x, g.n)
        } else {
            engine.ternary_gemm(g.m, g.n, &x)
        };
        accumulate(&mut total, &r);
    }
    total
}

fn run_simdram(w: &Workload) -> ExecutionReport {
    let e = SimdramEngine::x(16);
    let mut total = empty_total();
    for g in &w.gemms {
        let r = e.ternary_gemm(g.m, g.n, g.k);
        accumulate(&mut total, &r);
    }
    total
}

#[derive(Serialize)]
struct Fig18Row {
    name: String,
    simdram_ms: f64,
    c2m_ms: f64,
    protected_ms: f64,
    c2m_gpw: f64,
    protected_gpw: f64,
    simdram_gpw: f64,
    c2m_gpa: f64,
    protected_gpa: f64,
    simdram_gpa: f64,
    protection_overhead: f64,
}

fn main() {
    json_only("fig18").unwrap_or_else(|e| fail(&e));
    header("fig18", "Full workloads incl. protection scheme overhead");
    let c2m = C2mEngine::builder(EngineConfig::c2m(16)).build();
    let protected = C2mEngine::builder(EngineConfig::c2m_protected(16)).build();

    println!(
        "\n{:>9} | {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "workload",
        "SIM ms",
        "C2M ms",
        "C2M+P ms",
        "SIM gpw",
        "C2M gpw",
        "C2M+P gpw",
        "SIM gpa",
        "C2M gpa",
        "C2M+P gpa"
    );
    let mut rows = Vec::new();
    for w in workloads() {
        let s = run_simdram(&w);
        let c = run(&c2m, &w);
        let p = run(&protected, &w);
        let row = Fig18Row {
            name: w.name.to_string(),
            simdram_ms: s.elapsed_ms(),
            c2m_ms: c.elapsed_ms(),
            protected_ms: p.elapsed_ms(),
            c2m_gpw: c.gops_per_watt(),
            protected_gpw: p.gops_per_watt(),
            simdram_gpw: s.gops_per_watt(),
            c2m_gpa: c.gops_per_mm2(),
            protected_gpa: p.gops_per_mm2(),
            simdram_gpa: s.gops_per_mm2(),
            protection_overhead: p.elapsed_ns / c.elapsed_ns - 1.0,
        };
        println!(
            "{:>9} | {:>11} {:>11} {:>11} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            row.name,
            eng(row.simdram_ms),
            eng(row.c2m_ms),
            eng(row.protected_ms),
            eng(row.simdram_gpw),
            eng(row.c2m_gpw),
            eng(row.protected_gpw),
            eng(row.simdram_gpa),
            eng(row.c2m_gpa),
            eng(row.protected_gpa),
        );
        rows.push(row);
    }
    let avg_overhead: f64 =
        rows.iter().map(|r| r.protection_overhead).sum::<f64>() / rows.len() as f64;
    println!(
        "\nprotection overhead (detect + 19.6%-style correction): {:.1}% of unprotected time",
        avg_overhead * 100.0
    );
    println!("paper: 7n+7 -> 13n+16 ops plus ~19.6% correction at fault 1e-4");
    maybe_json(&rows);
}

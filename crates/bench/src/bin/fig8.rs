//! Fig. 8 — masked-addition cost across counter radices.
//!
//! (a) unit counting vs k-ary increments (average AAP commands per
//!     uniform 8-bit input) for i16/i32/i64 capacities, with RCA levels;
//! (b) k-ary (full rippling, incl. the capacity-dependent oblivious
//!     chain) vs IARM.

use c2m_bench::{header, maybe_json};
use c2m_jc::cost::{
    average_over_uniform_u8, digits_for_capacity, iarm_stream_ops, kary_full_ripple_ops,
    kary_oblivious_chain_ops, rca_add_ops, unit_counting_ops,
};
use serde::Serialize;

#[derive(Serialize)]
struct RadixRow {
    radix: usize,
    unit_i16: f64,
    unit_i32: f64,
    unit_i64: f64,
    kary_i16: f64,
    kary_i32: f64,
    kary_i64: f64,
    chain_i16: f64,
    chain_i32: f64,
    chain_i64: f64,
    iarm: f64,
}

fn main() {
    header("fig8", "Masked addition: unit vs k-ary vs IARM vs RCA");
    let radices: Vec<usize> = (1..=10).map(|n| 2 * n).collect();
    let inputs: Vec<u64> = (0..256).collect();

    println!(
        "\nRCA levels: i16 = {}, i32 = {}, i64 = {} AAP ops",
        rca_add_ops(16),
        rca_add_ops(32),
        rca_add_ops(64)
    );
    println!(
        "\n{:>6} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>8}",
        "radix",
        "unit16",
        "unit32",
        "unit64",
        "kary16",
        "kary32",
        "kary64",
        "chain16",
        "chain32",
        "chain64",
        "IARM"
    );
    let mut rows = Vec::new();
    for &r in &radices {
        let d16 = digits_for_capacity(r, 16);
        let d32 = digits_for_capacity(r, 32);
        let d64 = digits_for_capacity(r, 64);
        let row = RadixRow {
            radix: r,
            unit_i16: average_over_uniform_u8(|v| unit_counting_ops(v, r, d16)),
            unit_i32: average_over_uniform_u8(|v| unit_counting_ops(v, r, d32)),
            unit_i64: average_over_uniform_u8(|v| unit_counting_ops(v, r, d64)),
            kary_i16: average_over_uniform_u8(|v| kary_full_ripple_ops(v, r, d16)),
            kary_i32: average_over_uniform_u8(|v| kary_full_ripple_ops(v, r, d32)),
            kary_i64: average_over_uniform_u8(|v| kary_full_ripple_ops(v, r, d64)),
            chain_i16: average_over_uniform_u8(|v| kary_oblivious_chain_ops(v, r, d16)),
            chain_i32: average_over_uniform_u8(|v| kary_oblivious_chain_ops(v, r, d32)),
            chain_i64: average_over_uniform_u8(|v| kary_oblivious_chain_ops(v, r, d64)),
            iarm: iarm_stream_ops(&inputs, r, d64) as f64 / inputs.len() as f64,
        };
        println!(
            "{:>6} | {:>8.0} {:>8.0} {:>8.0} | {:>8.0} {:>8.0} {:>8.0} | {:>8.0} {:>8.0} {:>8.0} | {:>8.0}",
            row.radix, row.unit_i16, row.unit_i32, row.unit_i64,
            row.kary_i16, row.kary_i32, row.kary_i64,
            row.chain_i16, row.chain_i32, row.chain_i64, row.iarm
        );
        rows.push(row);
    }

    // Headline gains.
    let gains: Vec<f64> = rows.iter().map(|r| r.unit_i32 / r.kary_i32).collect();
    println!(
        "\nk-ary over unit counting gain (i32): min {:.1}x, max {:.1}x (paper: 2-6x)",
        gains.iter().cloned().fold(f64::INFINITY, f64::min),
        gains.iter().cloned().fold(0.0, f64::max)
    );
    let best_iarm = rows
        .iter()
        .filter(|r| (4..=8).contains(&r.radix))
        .map(|r| rca_add_ops(32) as f64 / r.iarm)
        .fold(0.0, f64::max);
    println!("IARM over RCA_i32 at radices 4-8: up to {best_iarm:.1}x (paper: IARM wins there)");
    maybe_json(&rows);
}

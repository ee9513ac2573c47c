//! Fig. 19 — bits required per counter vs capacity, across radices,
//! with the paper's real-task requirement lines.

use c2m_bench::{fail, header, json_only, maybe_json};
use c2m_jc::capacity::{binary_bits_required, bits_required, requirements, rows_required};
use serde::Serialize;

#[derive(Serialize)]
struct Fig19Row {
    capacity_bits: u32,
    binary: usize,
    radix4: usize,
    radix6: usize,
    radix8: usize,
    radix10: usize,
}

fn main() {
    json_only("fig19").unwrap_or_else(|e| fail(&e));
    header("fig19", "JC storage: bits required vs counter capacity");
    println!(
        "\n{:>10} | {:>7} {:>7} {:>7} {:>7} {:>7}",
        "capacity", "binary", "radix4", "radix6", "radix8", "radix10"
    );
    let mut rows = Vec::new();
    for capacity_bits in (4..=32).step_by(4) {
        let cap = 1u128 << capacity_bits;
        let row = Fig19Row {
            capacity_bits,
            binary: binary_bits_required(cap),
            radix4: bits_required(4, cap),
            radix6: bits_required(6, cap),
            radix8: bits_required(8, cap),
            radix10: bits_required(10, cap),
        };
        println!(
            "{:>10} | {:>7} {:>7} {:>7} {:>7} {:>7}",
            format!("2^{capacity_bits}"),
            row.binary,
            row.radix4,
            row.radix6,
            row.radix8,
            row.radix10
        );
        rows.push(row);
    }

    println!("\nreal-task requirements (paper annotations):");
    for (name, cap) in [
        ("DNA Filter", requirements::DNA_FILTER),
        ("BERT-Proj", requirements::BERT_PROJECTION),
        ("BERT-Attn", requirements::BERT_ATTENTION),
    ] {
        println!(
            "  {name:<11} capacity {cap:>4}: binary {:>2} bits, radix-10 {:>2} bits ({:>2} rows incl. O_next)",
            binary_bits_required(cap),
            bits_required(10, cap),
            rows_required(10, cap),
        );
    }
    println!("\npaper: radix-4 matches binary density; DNA filter = 10 bits radix-10 vs 7 binary");
    maybe_json(&rows);
}

//! Fig. 3 — input-value distributions motivating narrow accumulation.
//!
//! (a) k-mer repetition counts in DNA short reads (from real synthetic
//!     reads through the GRIM-style tokeniser, plus the parametric
//!     generator); (b) 8-bit BERT-style embedding values.

use c2m_bench::{fail, header, json_only, maybe_json};
use c2m_workloads::distributions::{int8_embeddings, token_repetitions, Histogram};
use c2m_workloads::dna::{DnaFilter, FilterConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3 {
    token_repetition: Vec<(i64, u64)>,
    embeddings: Vec<(i64, u64)>,
    mass_within_5_bits_tokens: f64,
    mass_within_8_bits_embeddings: f64,
}

fn main() {
    json_only("fig3").unwrap_or_else(|e| fail(&e));
    header(
        "fig3",
        "Input distributions (DNA token repetition, BERT embeddings)",
    );

    // (a) Token repetitions measured from actual synthetic reads.
    let filter = DnaFilter::build(FilterConfig::small(), 42);
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let mut measured: Vec<i64> = Vec::new();
    for _ in 0..200 {
        let read = filter.positive_read(&mut rng);
        let mut reps = std::collections::BTreeMap::new();
        for w in read.windows(filter.config().k) {
            *reps.entry(w.to_vec()).or_insert(0i64) += 1;
        }
        measured.extend(reps.values());
    }
    let parametric = token_repetitions(100_000, 1);
    let ha = Histogram::build(&parametric);
    let hm = Histogram::build(&measured);

    println!("\n(a) short-read token repetition (log-scale frequency)");
    println!("{:>6} {:>12} {:>12}", "value", "parametric", "measured");
    for v in 1..=18 {
        println!("{:>6} {:>12} {:>12}", v, ha.count(v), hm.count(v));
    }

    // (b) 8-bit embeddings.
    let emb = int8_embeddings(200_000, 2);
    let hb = Histogram::build(&emb);
    println!("\n(b) 8-bit input embeddings (bucketed by 16)");
    println!("{:>10} {:>12}", "bucket", "count");
    let mut v = -128i64;
    while v < 128 {
        let c: u64 = (v..v + 16).map(|x| hb.count(x)).sum();
        println!("{:>10} {:>12}", format!("[{v},{})", v + 16), c);
        v += 16;
    }

    let ta = ha.mass_within_bits(5);
    let tb = hb.mass_within_bits(8);
    println!("\npaper claim (§3): values representable in 4-8 bits");
    println!("  token repetitions within 5 bits: {:.4}", ta);
    println!("  embeddings within 8 bits:        {:.4}", tb);

    maybe_json(&Fig3 {
        token_repetition: (1..=18).map(|v| (v, ha.count(v))).collect(),
        embeddings: (-128..128).map(|v| (v, hb.count(v))).collect(),
        mass_within_5_bits_tokens: ta,
        mass_within_8_bits_embeddings: tb,
    });
}

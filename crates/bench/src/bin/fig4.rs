//! Fig. 4 — fault-rate impact on accumulation error and DNA filtering.
//!
//! (a) RMSE of accumulated additions for JC vs RCA, unprotected and with
//!     TMR/ECC, across CIM fault rates 10⁻⁶…10⁻¹.
//! (b) DNA pre-alignment filter F1 for the JC- and RCA-based filters.

use c2m_baselines::rca::RcaAccumulator;
use c2m_bench::{eng, fail, header, json_only, maybe_json};
use c2m_cim::{FaultModel, Row};
use c2m_ecc::protect::ProtectionKind;
use c2m_jc::bank::CounterBank;
use c2m_workloads::dna::{effective_rate, DnaFilter, FilterConfig, JcBackend, RcaBackend};
use serde::Serialize;

const RATES: [f64; 6] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1];
const LANES: usize = 512;
const ADDS: usize = 40;

fn jc_rmse(rate: f64, protection: ProtectionKind, seed: u64) -> f64 {
    // Radix-10 counters with 16-bit-equivalent capacity (Fig. 4a setup).
    let mut bank = CounterBank::with_faults(10, 5, LANES, FaultModel::new(rate, seed), protection);
    let mask = Row::ones(LANES);
    let mut expect = 0u128;
    for i in 0..ADDS {
        let v = 1 + (i as u128 * 7) % 16; // narrow 4-bit inputs (§3)
        bank.accumulate_ripple(v, &mask);
        expect += v;
    }
    let mut acc = 0.0f64;
    for l in 0..LANES {
        let d = bank.get_nearest(l) as f64 - expect as f64;
        acc += d * d;
    }
    (acc / LANES as f64).sqrt()
}

fn rca_rmse(rate: f64, protection: ProtectionKind, seed: u64) -> f64 {
    let eff = effective_rate(rate, protection);
    let mut acc = RcaAccumulator::with_faults(32, LANES, FaultModel::new(eff, seed));
    let mask = Row::ones(LANES);
    let mut expect = 0u128;
    for i in 0..ADDS {
        let v = 1 + (i as u128 * 7) % 16;
        acc.add_masked(v, &mask);
        expect += v;
    }
    acc.rmse(&vec![expect; LANES])
}

#[derive(Serialize)]
struct Fig4Row {
    rate: f64,
    jc: f64,
    jc_tmr: f64,
    jc_ecc: f64,
    rca: f64,
    rca_tmr: f64,
    rca_ecc: f64,
}

fn main() {
    json_only("fig4").unwrap_or_else(|e| fail(&e));
    header("fig4", "Fault impact: accumulation RMSE and DNA filter F1");
    let ecc = ProtectionKind::ecc_default();

    println!("\n(a) RMSE of accumulated adds (radix-10 JC vs 32-bit RCA)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "fault", "JC", "JC+TMR", "JC+ECC", "RCA", "RCA+TMR", "RCA+ECC"
    );
    let mut rows = Vec::new();
    let avg = |f: &dyn Fn(u64) -> f64, base: u64| -> f64 {
        (0..3).map(|t| f(base + 17 * t)).sum::<f64>() / 3.0
    };
    for (i, &rate) in RATES.iter().enumerate() {
        let seed = 100 + i as u64;
        let row = Fig4Row {
            rate,
            jc: avg(&|s| jc_rmse(rate, ProtectionKind::None, s), seed),
            jc_tmr: avg(&|s| jc_rmse(rate, ProtectionKind::Tmr, s), seed),
            jc_ecc: avg(&|s| jc_rmse(rate, ecc, s), seed),
            rca: avg(&|s| rca_rmse(rate, ProtectionKind::None, s), seed),
            rca_tmr: avg(&|s| rca_rmse(rate, ProtectionKind::Tmr, s), seed),
            rca_ecc: avg(&|s| rca_rmse(rate, ecc, s), seed),
        };
        println!(
            "{:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            format!("{rate:.0e}"),
            eng(row.jc),
            eng(row.jc_tmr),
            eng(row.jc_ecc),
            eng(row.rca),
            eng(row.rca_tmr),
            eng(row.rca_ecc),
        );
        rows.push(row);
    }

    println!("\n(b) DNA pre-alignment filter F1 (unprotected backends)");
    println!("{:>8} {:>10} {:>10}", "fault", "JC", "RCA");
    let filter = DnaFilter::build(FilterConfig::small(), 42);
    let mut f1 = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let seed = 200 + i as u64;
        let mut jc = JcBackend::new(filter.bins(), rate, ProtectionKind::None, seed);
        let mut rca = RcaBackend::new(filter.bins(), rate, ProtectionKind::None, seed);
        let a = filter.f1_score(&mut jc, 50, seed);
        let b = filter.f1_score(&mut rca, 50, seed);
        println!("{:>8} {:>10.3} {:>10.3}", format!("{rate:.0e}"), a, b);
        f1.push((rate, a, b));
    }

    println!("\npaper claim: JC tolerates ~10x higher fault rates than RCA");
    maybe_json(&(rows, f1));
}

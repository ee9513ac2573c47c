//! Fig. 17 — application accuracy under CIM fault injection.
//!
//! (a) DNA pre-alignment filter F1 and (b) BERT-proxy classification
//! accuracy for JC and RCA backends, unprotected and with TMR / ECC,
//! across fault rates 10⁻⁶…10⁻¹ (Monte Carlo on the bit-accurate
//! kernels).

use c2m_bench::{fail, header, json_only, maybe_json};
use c2m_core::kernels::KernelConfig;
use c2m_ecc::protect::ProtectionKind;
use c2m_workloads::bertproxy::TernaryMlp;
use c2m_workloads::dna::{
    effective_rate, DnaFilter, FilterConfig, JcBackend, MaskedAccumulator, RcaBackend,
};
use serde::Serialize;

const RATES: [f64; 6] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

const CONFIGS: [(&str, bool, ProtectionKind); 6] = [
    ("JC", true, ProtectionKind::None),
    ("JC+TMR", true, ProtectionKind::Tmr),
    (
        "JC+ECC",
        true,
        ProtectionKind::Ecc {
            fr_checks: 2,
            fuse_inverted_feedback: false,
        },
    ),
    ("RCA", false, ProtectionKind::None),
    ("RCA+TMR", false, ProtectionKind::Tmr),
    (
        "RCA+ECC",
        false,
        ProtectionKind::Ecc {
            fr_checks: 2,
            fuse_inverted_feedback: false,
        },
    ),
];

#[derive(Serialize)]
struct Series {
    name: String,
    values: Vec<(f64, f64)>,
}

fn main() {
    json_only("fig17").unwrap_or_else(|e| fail(&e));
    header(
        "fig17",
        "Accuracy under CIM faults: DNA filter F1, BERT-proxy accuracy",
    );

    // --- (a) DNA filtering.
    let filter = DnaFilter::build(FilterConfig::small(), 42);
    println!("\n(a) DNA filter F1");
    print!("{:>8}", "fault");
    for (name, _, _) in CONFIGS {
        print!(" {name:>8}");
    }
    println!();
    let mut dna_series: Vec<Series> = CONFIGS
        .iter()
        .map(|(n, _, _)| Series {
            name: (*n).into(),
            values: vec![],
        })
        .collect();
    for (ri, &rate) in RATES.iter().enumerate() {
        print!("{:>8}", format!("{rate:.0e}"));
        for (ci, &(_, jc, prot)) in CONFIGS.iter().enumerate() {
            let seed = 1000 + (ri * 10 + ci) as u64;
            let mut acc: Box<dyn MaskedAccumulator> = if jc {
                Box::new(JcBackend::new(filter.bins(), rate, prot, seed))
            } else {
                Box::new(RcaBackend::new(filter.bins(), rate, prot, seed))
            };
            let f1 = filter.f1_score(acc.as_mut(), 50, seed);
            print!(" {f1:>8.3}");
            dna_series[ci].values.push((rate, f1));
        }
        println!();
    }
    println!("(gray region in the paper: F1 < 0.9 unacceptable)");

    // --- (b) BERT proxy.
    let mlp = TernaryMlp::new(7);
    println!("\n(b) BERT-proxy classification accuracy (%)");
    print!("{:>8}", "fault");
    for (name, _, _) in CONFIGS {
        print!(" {name:>8}");
    }
    println!();
    let mut bert_series: Vec<Series> = CONFIGS
        .iter()
        .map(|(n, _, _)| Series {
            name: (*n).into(),
            values: vec![],
        })
        .collect();
    for (ri, &rate) in RATES.iter().enumerate() {
        print!("{:>8}", format!("{rate:.0e}"));
        for (ci, &(_, jc, prot)) in CONFIGS.iter().enumerate() {
            let seed = 2000 + (ri * 10 + ci) as u64;
            // The RCA variant is emulated with binary (radix-2) counters
            // whose long carry chains amplify faults, at the RCA proxy's
            // effective rate.
            let cfg = if jc {
                KernelConfig {
                    fault_rate: effective_rate(rate, prot),
                    radix: 10,
                    seed,
                    ..KernelConfig::compact()
                }
            } else {
                KernelConfig {
                    fault_rate: (effective_rate(rate, prot) * 4.0).min(1.0),
                    radix: 2,
                    seed,
                    ..KernelConfig::compact()
                }
            };
            let acc = mlp.accuracy(&cfg, 16, seed) * 100.0;
            print!(" {acc:>8.1}");
            bert_series[ci].values.push((rate, acc));
        }
        println!();
    }
    println!("(paper: >70% acceptable for MNLI; JC holds up to ~5% fault rate)");
    maybe_json(&(dna_series, bert_series));
}

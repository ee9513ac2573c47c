//! Pins the bytes the fault studies produce.
//!
//! Figs. 4 and 17 come from Monte-Carlo runs on the bit-accurate
//! counter bank and ripple-carry adder, so their outputs depend on every
//! gate's result and on the order in which each result draws from its
//! fault stream. The cases below are those figures at a smaller size:
//!
//! * `rmse` (fig4(a)): RMSE of 10 narrow adds over 64 lanes, on
//!   radix-10 Johnson counters or a 32-bit ripple-carry adder;
//! * `dna` (fig4(b) and fig17(a)): DNA pre-alignment filter F1 over 5
//!   reads;
//! * `bert` (fig17(b)): BERT-proxy accuracy over 2 samples.
//!
//! Each runs for JC and RCA × {unprotected, TMR, ECC} × fault rates
//! {1e-4, 1e-2, 1e-1}. The FNV-1a digest of each configuration's three
//! results (their `f64` bits) is compared with a recorded value, so a
//! change that moves any result fails here and names the configuration.

use count2multiply::arch::kernels::KernelConfig;
use count2multiply::baselines::rca::RcaAccumulator;
use count2multiply::cim::{FaultModel, Row};
use count2multiply::ecc::protect::ProtectionKind;
use count2multiply::jc::bank::CounterBank;
use count2multiply::workloads::bertproxy::TernaryMlp;
use count2multiply::workloads::dna::{
    effective_rate, DnaFilter, FilterConfig, JcBackend, MaskedAccumulator, RcaBackend,
};

const RATES: [f64; 3] = [1e-4, 1e-2, 1e-1];
const LANES: usize = 64;
const ADDS: usize = 10;

/// The six configurations of fig17, in its column order.
fn configs() -> [(&'static str, bool, ProtectionKind); 6] {
    let ecc = ProtectionKind::ecc_default();
    [
        ("JC", true, ProtectionKind::None),
        ("JC+TMR", true, ProtectionKind::Tmr),
        ("JC+ECC", true, ecc),
        ("RCA", false, ProtectionKind::None),
        ("RCA+TMR", false, ProtectionKind::Tmr),
        ("RCA+ECC", false, ecc),
    ]
}

fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// fig4(a)'s accumulation RMSE at a smaller shape.
fn rmse(jc: bool, protection: ProtectionKind, rate: f64, seed: u64) -> f64 {
    let values = (0..ADDS as u128).map(|i| 1 + (i * 7) % 16);
    let expect: u128 = values.clone().sum();
    let mask = Row::ones(LANES);
    if jc {
        let faults = FaultModel::new(rate, seed);
        let mut bank = CounterBank::with_faults(10, 5, LANES, faults, protection);
        for v in values {
            bank.accumulate_ripple(v, &mask);
        }
        let sq: f64 = (0..LANES)
            .map(|l| (bank.get_nearest(l) as f64 - expect as f64).powi(2))
            .sum();
        (sq / LANES as f64).sqrt()
    } else {
        let faults = FaultModel::new(effective_rate(rate, protection), seed);
        let mut acc = RcaAccumulator::with_faults(32, LANES, faults);
        for v in values {
            acc.add_masked(v, &mask);
        }
        acc.rmse(&[expect; LANES])
    }
}

/// fig17(a)'s DNA-filter F1 over a few reads.
fn dna(filter: &DnaFilter, jc: bool, protection: ProtectionKind, rate: f64, seed: u64) -> f64 {
    let mut acc: Box<dyn MaskedAccumulator> = if jc {
        Box::new(JcBackend::new(filter.bins(), rate, protection, seed))
    } else {
        Box::new(RcaBackend::new(filter.bins(), rate, protection, seed))
    };
    filter.f1_score(acc.as_mut(), 5, seed)
}

/// fig17(b)'s BERT-proxy accuracy over a few samples: radix-10 counters
/// for JC, radix-2 counters at 4× the effective rate for RCA.
fn bert(mlp: &TernaryMlp, jc: bool, protection: ProtectionKind, rate: f64, seed: u64) -> f64 {
    let (radix, fault_rate) = if jc {
        (10, effective_rate(rate, protection))
    } else {
        (2, (effective_rate(rate, protection) * 4.0).min(1.0))
    };
    let cfg = KernelConfig {
        fault_rate,
        radix,
        seed,
        ..KernelConfig::compact()
    };
    mlp.accuracy(&cfg, 2, seed)
}

/// Runs `study` over every configuration and rate and compares each
/// configuration's digest with its recorded value, naming every one
/// that moved.
fn assert_pinned(study: &str, run: impl Fn(bool, ProtectionKind, f64, u64) -> f64, want: [u64; 6]) {
    let mut moved = Vec::new();
    for (ci, ((name, jc, protection), want)) in configs().into_iter().zip(want).enumerate() {
        let results: Vec<f64> = RATES
            .iter()
            .enumerate()
            .map(|(ri, &rate)| run(jc, protection, rate, 3000 + (ri * 10 + ci) as u64))
            .collect();
        let got = fnv1a(&results);
        if got != want {
            moved.push(format!(
                "{study}/{name}: {got:#018x}, recorded {want:#018x} ({results:?})"
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "fault-study bytes moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn accumulation_rmse_is_pinned() {
    assert_pinned(
        "rmse",
        rmse,
        [
            0xf78d_1979_dddb_8f72,
            0xbe89_a7bd_bd6b_cd85,
            0x425b_7fda_3e21_8733,
            0x80a4_5f93_1b86_92f1,
            0x0738_57f4_80ed_f140,
            0xe013_effe_9587_b5d0,
        ],
    );
}

#[test]
fn dna_filter_f1_is_pinned() {
    let filter = DnaFilter::build(FilterConfig::small(), 42);
    assert_pinned(
        "dna",
        |jc, protection, rate, seed| dna(&filter, jc, protection, rate, seed),
        [
            0x90da_634f_9fb2_19c4,
            0x90da_634f_9fb2_19c4,
            0x4401_8bcc_82d1_c0b7,
            0x90da_634f_9fb2_19c4,
            0x90da_634f_9fb2_19c4,
            0xd15f_f003_fa76_1af0,
        ],
    );
}

#[test]
fn bert_proxy_accuracy_is_pinned() {
    let mlp = TernaryMlp::new(7);
    assert_pinned(
        "bert",
        |jc, protection, rate, seed| bert(&mlp, jc, protection, rate, seed),
        [
            0x81d2_3fd7_003c_2305,
            0x439b_b40f_bb1a_9658,
            0x43d2_340f_bb48_ff48,
            0x5182_e8e8_149f_bac8,
            0x3d8e_befa_8577_f955,
            0x43d2_340f_bb48_ff48,
        ],
    );
}

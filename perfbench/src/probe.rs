//! Per-layer probes for the `figures` workload, whose binaries run as
//! child processes: the persistent cache store's I/O on the store a
//! cold `--cache-dir` run wrote, and the functional bit-accurate
//! counters behind `fig4` at its 512-lane shape.

use crate::record::{obj, sub_seed, Recorder};
use c2m_baselines::rca::RcaAccumulator;
use c2m_cim::{FaultModel, Row};
use c2m_core::cache::PlanCache;
use c2m_core::store::CacheStore;
use c2m_ecc::protect::ProtectionKind;
use c2m_jc::bank::CounterBank;
use c2m_workloads::dna::effective_rate;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

/// fig4's counter shape: 512 lanes of radix-10, 5-digit counters (JC)
/// or 32-bit binary counters (RCA), 40 narrow additions each.
const LANES: usize = 512;
const ADDS: usize = 40;
/// fig4's mid-range CIM fault rate, under its ECC protection.
const FAULT_RATE: f64 = 1e-4;
/// Store loads and saves timed per probe.
const STORE_REPS: usize = 3;
/// Host time spent on each counter probe, s.
const COUNTER_SECONDS: f64 = 0.25;

/// fig4's input sequence: narrow 4-bit values.
fn add_value(i: usize) -> u128 {
    1 + (i as u128 * 7) % 16
}

/// Loads the store at `path` into a fresh cache and saves it back,
/// checking the round trip reproduces the file byte for byte.
fn store(rec: &mut Recorder, path: &Path) {
    let original = std::fs::read(path).unwrap_or_default();
    rec.checks.check(!original.is_empty(), || {
        format!("no store was written at {}", path.display())
    });
    rec.add("core.store.bytes", original.len() as f64);
    let resaved = path.with_extension("resave");
    for rep in 0..STORE_REPS {
        let run = rep as u32;
        let cache = PlanCache::default();
        let loaded = rec.time("core.store.load", None, run, || {
            CacheStore::load_into(path, &cache)
        });
        rec.checks
            .check(loaded, || "the cold run's store did not load".into());
        let saved = rec.time("core.store.save", None, run, || {
            CacheStore::save(&resaved, &cache)
        });
        rec.checks.check(
            saved.is_ok() && std::fs::read(&resaved).ok().as_deref() == Some(&original[..]),
            || "a loaded store did not save back byte-identically".into(),
        );
    }
    let _ = std::fs::remove_file(&resaved);
}

/// Times `CounterBank::accumulate_ripple` on fig4's ECC-protected
/// shape, and checks a fault-free bank counts exactly.
fn counter_bank(rec: &mut Recorder, seed: u64) {
    let mask = Row::ones(LANES);
    let ecc = ProtectionKind::ecc_default();
    let start = Instant::now();
    let mut run = 0u32;
    while run == 0 || start.elapsed().as_secs_f64() < COUNTER_SECONDS {
        let faults = FaultModel::new(FAULT_RATE, sub_seed(seed, u64::from(run)));
        let mut bank = CounterBank::with_faults(10, 5, LANES, faults, ecc);
        let span = rec.open("jc.bank.fig4", None, run);
        for i in 0..ADDS {
            rec.time("jc.bank.accumulate_ripple", Some(span), run, || {
                bank.accumulate_ripple(add_value(i), &mask);
            });
        }
        rec.close(span);
        run += 1;
    }
    let mut exact = CounterBank::new(10, 5, LANES);
    for i in 0..ADDS {
        exact.accumulate_ripple(add_value(i), &mask);
    }
    let expect: u128 = (0..ADDS).map(add_value).sum();
    rec.checks
        .check((0..LANES).all(|l| exact.get(l) == Some(expect)), || {
            "a fault-free counter bank miscounted".into()
        });
}

/// Times `RcaAccumulator::add_masked` on fig4's shape at the same
/// effective fault rate, and checks a fault-free accumulator is exact.
fn rca(rec: &mut Recorder, seed: u64) {
    let mask = Row::ones(LANES);
    let rate = effective_rate(FAULT_RATE, ProtectionKind::ecc_default());
    let start = Instant::now();
    let mut run = 0u32;
    while run == 0 || start.elapsed().as_secs_f64() < COUNTER_SECONDS {
        let faults = FaultModel::new(rate, sub_seed(seed, (1 << 32) | u64::from(run)));
        let mut acc = RcaAccumulator::with_faults(32, LANES, faults);
        let span = rec.open("baselines.rca.fig4", None, run);
        for i in 0..ADDS {
            rec.time("baselines.rca.add_masked", Some(span), run, || {
                acc.add_masked(add_value(i), &mask);
            });
        }
        rec.close(span);
        run += 1;
    }
    let mut exact = RcaAccumulator::new(32, LANES);
    for i in 0..ADDS {
        exact.add_masked(add_value(i), &mask);
    }
    let expect: u128 = (0..ADDS).map(add_value).sum();
    rec.checks
        .check((0..LANES).all(|l| exact.get(l) == expect), || {
            "a fault-free ripple-carry accumulator miscounted".into()
        });
}

/// Runs every probe and returns the result document.
pub fn run(seed: u64, store_path: &Path) -> Value {
    let mut rec = Recorder::new();
    store(&mut rec, store_path);
    counter_bank(&mut rec, seed);
    rca(&mut rec, seed);
    obj(vec![
        ("spans", rec.spans_json()),
        ("counters", rec.counters_json()),
        ("checks", rec.checks_json()),
    ])
}

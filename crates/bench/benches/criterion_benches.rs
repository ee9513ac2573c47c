//! Criterion micro-benchmarks over the hot paths behind each paper
//! artefact family:
//!
//! * `kary_lowering` / `microprogram_exec` — Fig. 6b/Fig. 8 increment
//!   machinery (μProgram emission and bit-accurate Ambit execution).
//! * `iarm_planning` — Fig. 8b host-side planning.
//! * `gemv_functional` — Figs. 14–16 kernels at test scale.
//! * `ecc_codes` — §6 codes (SECDED + BCH encode/correct).
//! * `rca_baseline` — the SIMDRAM adder of Figs. 4/8/17.
//! * `mig` — §4.2 synthesis pipeline (optimise + lower).
//! * `rs` — Reed–Solomon encode/correct (§6.1's symbol-level ECC).
//! * `ambit_rca` — the command-accurate SIMDRAM adder on the substrate.
//! * `request_queue` — §5.1 FR-FCFS host access path.
//! * `scheduler` — §7.2.1 multi-bank command scheduling.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use c2m_baselines::rca::RcaAccumulator;
use c2m_cim::ambit::AmbitSubarray;
use c2m_cim::Row;
use c2m_core::kernels::{ternary_gemv, KernelConfig};
use c2m_core::matrix::TernaryMatrix;
use c2m_dram::{ChannelScheduler, CommandKind, DramCommand, TimingParams};
use c2m_ecc::bch::Bch;
use c2m_ecc::{LinearCode, Secded};
use c2m_jc::ambit_lower::{lower_step, CounterLayout};
use c2m_jc::bank::CounterBank;
use c2m_jc::iarm::IarmPlanner;
use c2m_jc::kary::TransitionPattern;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn bench_kary_lowering(c: &mut Criterion) {
    let layout = CounterLayout::dense(5, 0);
    c.bench_function("kary_lowering/radix10_k7", |b| {
        b.iter(|| {
            let p = TransitionPattern::increment(5, black_box(7));
            lower_step(&layout, &p)
        })
    });
}

fn bench_microprogram_exec(c: &mut Criterion) {
    let n = 5;
    let layout = CounterLayout::dense(n, 0);
    let prog = lower_step(&layout, &TransitionPattern::increment(n, 3));
    let mut sub = AmbitSubarray::new(4096, CounterLayout::rows_needed(n));
    sub.write_data(layout.mask_row, &Row::ones(4096));
    c.bench_function("microprogram_exec/4096cols_42cmds", |b| {
        b.iter(|| sub.execute(black_box(&prog)))
    });
}

fn bench_counter_bank(c: &mut Criterion) {
    let mut bank = CounterBank::new(10, 5, 4096);
    let mask = Row::ones(4096);
    c.bench_function("counter_bank/accumulate_ripple_9999", |b| {
        b.iter(|| bank.accumulate_ripple(black_box(9999), &mask))
    });
}

fn bench_iarm_planning(c: &mut Criterion) {
    let inputs: Vec<u128> = (1..=256).collect();
    c.bench_function("iarm_planning/256_uniform_u8", |b| {
        b.iter(|| {
            let mut planner = IarmPlanner::new(10, 10);
            planner.assume_zero();
            let mut total = 0usize;
            for &x in &inputs {
                total += planner.plan_add(black_box(x)).len();
            }
            total + planner.flush().len()
        })
    });
}

fn bench_gemv_functional(c: &mut Criterion) {
    let mut rng = ChaCha12Rng::seed_from_u64(1);
    let t = TernaryMatrix::random(64, 128, 0.6, &mut rng);
    let x: Vec<i64> = (0..64).map(|_| rng.gen_range(-128i64..128)).collect();
    let cfg = KernelConfig::compact();
    c.bench_function("gemv_functional/ternary_64x128", |b| {
        b.iter(|| ternary_gemv(&cfg, black_box(&x), &t))
    });
}

fn bench_ecc_codes(c: &mut Criterion) {
    let secded = Secded::secded_72_64();
    let data: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
    c.bench_function("ecc/secded_72_64_checks", |b| {
        b.iter(|| secded.checks(black_box(&data)))
    });

    let bch = Bch::bch_127_t2_64();
    let checks = bch.checks(&data);
    c.bench_function("ecc/bch127_correct_double_error", |b| {
        b.iter(|| {
            let mut d = data.clone();
            let mut ch = checks.clone();
            d[3] = !d[3];
            d[40] = !d[40];
            bch.correct(black_box(&mut d), &mut ch)
        })
    });
}

fn bench_rca_baseline(c: &mut Criterion) {
    let mut acc = RcaAccumulator::new(64, 4096);
    let mask = Row::ones(4096);
    c.bench_function("rca/add64_4096lanes", |b| {
        b.iter(|| acc.add_masked(black_box(12345), &mask))
    });
}

fn bench_mig_pipeline(c: &mut Criterion) {
    use c2m_mig::counting;
    use c2m_mig::lower::{Lowerer, PinMap};
    use c2m_mig::rewrite::optimize_size;
    let circuit = counting::unit_increment(5);
    c.bench_function("mig/optimize_unit_increment_n5", |b| {
        b.iter(|| optimize_size(black_box(&circuit.mig), &circuit.outputs))
    });
    let pins = PinMap::dense(6, 8);
    c.bench_function("mig/lower_unit_increment_n5", |b| {
        b.iter(|| Lowerer::new(black_box(&circuit.mig), &pins).lower(&circuit.outputs))
    });
}

fn bench_rs_codec(c: &mut Criterion) {
    use c2m_ecc::ReedSolomon;
    let rs = ReedSolomon::new(64, 2);
    let data: Vec<u8> = (0..64).map(|i| (i * 37) as u8).collect();
    c.bench_function("rs/encode_64sym_t2", |b| {
        b.iter(|| rs.encode(black_box(&data)))
    });
    let mut cw = rs.encode(&data);
    cw[10] ^= 0x5A;
    cw[40] ^= 0x33;
    c.bench_function("rs/correct_2_symbol_errors", |b| {
        b.iter(|| {
            let mut w = cw.clone();
            rs.correct(black_box(&mut w))
        })
    });
}

fn bench_ambit_rca(c: &mut Criterion) {
    use c2m_baselines::AmbitRca;
    let mut adder = AmbitRca::new(32, 1024);
    c.bench_function("ambit_rca/add32_1024lanes", |b| {
        b.iter(|| adder.add(black_box(999)))
    });
}

fn bench_request_queue(c: &mut Criterion) {
    use c2m_dram::{MemoryRequest, RequestQueue};
    let reqs: Vec<MemoryRequest> = (0..2000)
        .map(|i| MemoryRequest::read(0.0, i % 16, i / 256))
        .collect();
    c.bench_function("request_queue/2k_streaming_reads", |b| {
        b.iter(|| {
            let mut q = RequestQueue::new(TimingParams::ddr5_4400(), 16);
            q.run(black_box(&reqs)).makespan_ns()
        })
    });
}

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("scheduler/10k_aaps_16banks", |b| {
        b.iter(|| {
            let mut s = ChannelScheduler::with_subarrays(TimingParams::ddr5_4400(), 16, 1, 1);
            for i in 0..10_000 {
                s.issue(DramCommand::new(i % 16, CommandKind::Aap));
            }
            s.elapsed_ns()
        })
    });
}

fn bench_sharded_engine(c: &mut Criterion) {
    use c2m_core::engine::{C2mEngine, EngineConfig};
    let mut cfg = EngineConfig::c2m(16);
    cfg.dram.channels = 4;
    // Uncached: a cached engine would time a report hit after the
    // first iteration.
    let engine = C2mEngine::builder(cfg).no_cache().build();
    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let x: Vec<i64> = (0..4096).map(|_| rng.gen_range(-128i64..128)).collect();
    c.bench_function("engine/ternary_gemv_k4096_4ch", |b| {
        b.iter(|| engine.ternary_gemv(black_box(&x), 8192))
    });
}

criterion_group!(
    benches,
    bench_kary_lowering,
    bench_microprogram_exec,
    bench_counter_bank,
    bench_iarm_planning,
    bench_gemv_functional,
    bench_ecc_codes,
    bench_rca_baseline,
    bench_mig_pipeline,
    bench_rs_codec,
    bench_ambit_rca,
    bench_request_queue,
    bench_scheduler,
    bench_sharded_engine,
);
criterion_main!(benches);

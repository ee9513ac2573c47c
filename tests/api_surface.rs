//! Guards the umbrella crate's public API surface.
//!
//! Every paper-artefact binary, example and downstream consumer reaches
//! the workspace through `count2multiply::{dram, cim, ecc, jc, mig,
//! arch, baselines, workloads}`. If a re-export in `src/lib.rs` breaks
//! (renamed member crate, dropped `pub use`, module made private), this
//! test fails at compile time instead of the damage surfacing later in
//! some rarely-built figure binary.

use count2multiply::arch::kernels::{int_binary_gemv, KernelConfig};
use count2multiply::arch::matrix::BinaryMatrix;
use count2multiply::arch::{
    BackendPolicy, C2mEngine, EngineConfig, MaskEncoding, ShardPlanner, ShardSizing,
};
use count2multiply::baselines::{AmbitRca, RcaAccumulator};
use count2multiply::cim::{AmbitSubarray, Backend, FaultModel, MicroProgram, Row};
use count2multiply::dram::{
    AreaModel, DramConfig, MemoryRequest, RequestQueue, TimingParams, Topology,
};
use count2multiply::ecc::{LinearCode, ReedSolomon, Secded};
use count2multiply::jc::{CounterBank, IarmPlanner, JohnsonCode, TransitionPattern};
use count2multiply::mig::{counting, Mig, Signal};
use count2multiply::serve::{
    open_loop, OpenLoopConfig, SchedPolicy, ServeConfig, ServeRuntime, ServiceClass, TenantSpec,
};
use count2multiply::workloads::distributions;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Touch one load-bearing type or function behind every re-export, so a
/// broken path is a compile error and a broken default is a test error.
#[test]
fn every_reexport_is_reachable_and_sane() {
    // dram
    let timing = TimingParams::ddr5_4400();
    assert!(timing.t_aap() > 0.0, "DDR5 AAP latency must be positive");
    let cfg = DramConfig::ddr5_4400();
    let _area: AreaModel = AreaModel::default();
    let mut queue = RequestQueue::new(TimingParams::ddr5_4400(), 2);
    let report = queue.run(&[MemoryRequest::read(0.0, 0, 0)]);
    assert_eq!(report.completions.len(), 1);

    // cim
    let row = Row::ones(8);
    assert_eq!((0..8).filter(|&i| row.get(i)).count(), 8);
    let _sub = AmbitSubarray::new(64, 16);
    assert_ne!(Backend::Ambit, Backend::Fcdram);
    let _faults = FaultModel::new(0.0, 1);
    assert!(MicroProgram::default().is_empty());

    // ecc
    let secded = Secded::secded_72_64();
    let data: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
    let checks = secded.checks(&data);
    assert!(!checks.is_empty());
    let rs = ReedSolomon::new(16, 2);
    let cw = rs.encode(&(0..16).map(|i| i as u8).collect::<Vec<_>>());
    assert_eq!(cw.len(), 16 + 2 * 2);

    // jc
    let code = JohnsonCode::new(5);
    assert_eq!(code.decode(code.encode(7)), Some(7));
    let mut bank = CounterBank::new(10, 4, 4);
    bank.accumulate_ripple(123, &Row::ones(4));
    assert_eq!(bank.get(0), Some(123));
    let mut planner = IarmPlanner::new(10, 4);
    planner.assume_zero();
    assert!(!planner.plan_add(5).is_empty());
    let _p = TransitionPattern::increment(5, 3);

    // mig
    let mut mig = Mig::new();
    let a = mig.pi();
    let s = mig.maj(a, Signal::TRUE, Signal::FALSE);
    assert_eq!(mig.tt(s), mig.tt(a), "MAJ(a, 1, 0) must collapse to a");
    let circuit = counting::unit_increment(3);
    assert!(!circuit.outputs.is_empty());

    // arch (c2m_core)
    let engine = C2mEngine::builder(EngineConfig::c2m(4)).build();
    let gemm = engine.ternary_gemm(4, 4, &[1, -2, 3, -4]);
    assert!(gemm.elapsed_ns > 0.0);
    assert_ne!(MaskEncoding::Binary, MaskEncoding::Ternary);
    // topology + sharding surface
    assert_eq!(Topology::single(4).units(), 1);
    assert_eq!(engine.topology().units(), 1);
    let plan = ShardPlanner::new(
        Topology {
            channels: 2,
            ranks: 2,
            banks: 4,
            subarrays: 1,
        }
        .with_subarrays(2),
    )
    .plan_inner(64);
    assert_eq!(plan.units_used(), 8);
    assert_eq!(plan.cr_units_used(), 4);
    let _policy = BackendPolicy::Uniform(Backend::Fcdram);
    let mut rng = ChaCha12Rng::seed_from_u64(9);
    let z = BinaryMatrix::random(4, 4, 0.5, &mut rng);
    let got = int_binary_gemv(&KernelConfig::compact(), &[1, 2, 3, 4], &z);
    let want = z.reference_gemv(&[1, 2, 3, 4]);
    for (g, w) in got.y.iter().zip(want) {
        assert_eq!(*g, i128::from(w));
    }

    // baselines
    let mut rca = RcaAccumulator::new(16, 4);
    rca.add_masked(3, &Row::ones(4));
    assert_eq!(rca.get(0), 3);
    let mut ambit_rca = AmbitRca::new(16, 4);
    ambit_rca.add(2);
    assert_eq!(ambit_rca.get(0), 2);

    // workloads
    let samples = distributions::uniform_u8(32, 1);
    assert_eq!(samples.len(), 32);
    assert!(samples.iter().all(|&v| (0..256).contains(&v)));
    let gaps = distributions::exp_interarrivals(8, 100.0, 2);
    assert!(gaps.iter().all(|&g| g > 0.0));

    // serve
    let _sizing = ShardSizing::Weighted(vec![1.0, 0.5]);
    let trace = open_loop(&OpenLoopConfig {
        tenants: vec![TenantSpec::new(64, 64).with_class(ServiceClass::new(1, 1e6))],
        requests: 6,
        mean_interarrival_ns: 1_000.0,
        seed: 1,
    });
    let serve_engine = C2mEngine::builder(EngineConfig::c2m(4)).build();
    let residency_rows = serve_engine.residency_capacity_rows();
    let runtime = ServeRuntime::new(
        serve_engine,
        ServeConfig {
            max_batch: 3,
            window_ns: 1e9,
            policy: SchedPolicy::EarliestDeadlineFirst,
            residency_rows: Some(residency_rows),
            ..ServeConfig::default()
        },
    );
    let served = runtime.run(&trace);
    assert_eq!(served.outcomes.len(), 6);
    assert!(served.throughput_rps() > 0.0);
    assert!(served.p99_ns() >= served.p50_ns());
    assert_eq!(served.reload_count(), 1, "one cold mask load");
    assert!(!served.class_stats().is_empty());

    let _ = cfg;
}

/// The serde shim path used by every `--json` figure binary: derived
/// `Serialize` -> `serde_json::to_string_pretty` -> parseable JSON.
#[test]
fn figure_binary_json_contract_round_trips() {
    let timing = TimingParams::ddr5_4400();
    let text = serde_json::to_string_pretty(&timing).expect("serialisable");
    let value = serde_json::from_str(&text).expect("valid JSON");
    match value {
        serde_json::Value::Object(entries) => assert!(!entries.is_empty()),
        other => panic!("TimingParams must serialise to an object, got {other:?}"),
    }
}

//! Property tests over the session's extension modules: Reed–Solomon
//! decoding, the command-accurate SIMDRAM adder, the FR-FCFS request
//! queue, the refresh model and the placement planner.

use count2multiply::arch::placement::{self, CounterSpec, KernelShape, MaskEncoding};
use count2multiply::baselines::ambit_rca::AmbitRca;
use count2multiply::cim::Row;
use count2multiply::dram::{DramConfig, MemoryRequest, RefreshModel, RequestQueue, TimingParams};
use count2multiply::ecc::ReedSolomon;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// RS(k+2t, k) corrects every error pattern of ≤ t symbols exactly.
    #[test]
    fn rs_corrects_all_patterns_up_to_t(
        seed in any::<u64>(),
        k in 4usize..40,
        t in 1usize..4,
        n_err_raw in 0usize..4,
    ) {
        let n_err = n_err_raw.min(t);
        let rs = ReedSolomon::new(k, t);
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let data: Vec<u8> = (0..k).map(|_| (next() & 0xFF) as u8).collect();
        let clean = rs.encode(&data);
        let mut cw = clean.clone();
        let mut hit = std::collections::BTreeSet::new();
        for _ in 0..n_err {
            let pos = loop {
                let p = next() % cw.len();
                if hit.insert(p) {
                    break p;
                }
            };
            let flip = ((next() % 255) + 1) as u8;
            cw[pos] ^= flip;
        }
        let fixed = rs.correct(&mut cw);
        prop_assert_eq!(fixed, Some(n_err));
        prop_assert_eq!(cw, clean);
    }

    /// The in-memory ripple adder equals u128 arithmetic for any masked
    /// accumulation sequence.
    #[test]
    fn ambit_rca_equals_integer_arithmetic(
        adds in prop::collection::vec((0u64..100_000, any::<u8>()), 1..12),
    ) {
        let lanes = 8;
        let width = 40;
        let modulus = 1u128 << width;
        let mut adder = AmbitRca::new(width, lanes);
        let mut reference = vec![0u128; lanes];
        for (v, mask_bits) in &adds {
            let mask = Row::from_bits((0..lanes).map(|l| (mask_bits >> l) & 1 == 1));
            adder.add_masked(u128::from(*v), &mask);
            for (l, r) in reference.iter_mut().enumerate() {
                if mask.get(l) {
                    *r = (*r + u128::from(*v)) % modulus;
                }
            }
        }
        for (l, &r) in reference.iter().enumerate().take(lanes) {
            prop_assert_eq!(adder.get(l), r, "lane {}", l);
        }
    }

    /// FR-FCFS services every request exactly once, never issues before
    /// arrival, and never overlaps two requests on the same bank.
    #[test]
    fn request_queue_invariants(
        reqs_raw in prop::collection::vec(
            (0.0f64..500.0, 0usize..4, 0usize..8),
            1..40,
        ),
    ) {
        let reqs: Vec<MemoryRequest> = reqs_raw
            .iter()
            .map(|&(t, b, r)| MemoryRequest::read(t, b, r))
            .collect();
        let mut q = RequestQueue::new(TimingParams::ddr5_4400(), 4);
        let rep = q.run(&reqs);
        prop_assert_eq!(rep.completions.len(), reqs.len());
        for c in &rep.completions {
            prop_assert!(c.issue_ns >= c.request.arrival_ns - 1e-9);
            prop_assert!(c.finish_ns > c.issue_ns);
        }
        // Per-bank service intervals must not overlap.
        for bank in 0..4 {
            let mut spans: Vec<(f64, f64)> = rep
                .completions
                .iter()
                .filter(|c| c.request.bank == bank)
                .map(|c| (c.issue_ns, c.finish_ns))
                .collect();
            spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in spans.windows(2) {
                prop_assert!(w[1].0 >= w[0].1 - 1e-9, "bank {} overlap", bank);
            }
        }
    }

    /// Refresh stretching is monotone and consistent with the overhead
    /// fraction.
    #[test]
    fn refresh_stretch_is_consistent(busy in 1.0f64..1e9) {
        let r = RefreshModel::ddr5_4400();
        let wall = r.effective_elapsed_ns(busy);
        prop_assert!(wall >= busy);
        let recovered = wall * (1.0 - r.overhead_fraction());
        prop_assert!((recovered - busy).abs() / busy < 1e-9);
    }

    /// The placement planner is consistent: a shape at the planner's own
    /// max K always fits, and one row more never does.
    #[test]
    fn placement_max_k_is_tight(
        radix_idx in 0usize..4,
        capacity in prop::sample::select(vec![16u32, 32, 64]),
        enc_idx in 0usize..3,
    ) {
        let radix = [2usize, 4, 8, 10][radix_idx];
        let encoding = [
            MaskEncoding::Binary,
            MaskEncoding::Ternary,
            MaskEncoding::BitSliced(6),
        ][enc_idx];
        let cfg = DramConfig::ddr5_4400();
        let spec = CounterSpec {
            radix,
            capacity_bits: capacity,
            ..CounterSpec::paper_default()
        };
        let max_k = placement::max_k_per_subarray(&cfg, &spec, encoding);
        prop_assume!(max_k > 0);
        let fit = KernelShape { k: max_k, n_out: 64, encoding };
        prop_assert!(placement::plan(&cfg, &spec, &fit).is_ok());
        let overflow = KernelShape { k: max_k + 1, n_out: 64, encoding };
        prop_assert!(placement::plan(&cfg, &spec, &overflow).is_err());
    }
}

//! The paper's claims, checked on the committed figure output in
//! `golden/`.
//!
//! `golden.rs` holds the figure binaries to these bytes, so every claim
//! here holds on what the binaries print. A change that moves a figure
//! re-records its golden file and must keep these claims, or state in
//! the same diff which claim it gives up. The README's claim table
//! names the test behind each claim.

use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The JSON document at the end of `golden/<bin>.json`. A figure
/// binary prints its human table first; the document starts at the
/// last line that is exactly `{` or `[`.
fn document(bin: &str) -> Result<Value, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../golden/{bin}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{bin}: {e}"))?;
    let start = text
        .split_inclusive('\n')
        .scan(0, |at, line| {
            let here = *at;
            *at += line.len();
            Some((here, line.trim_end_matches('\n')))
        })
        .filter(|(_, line)| matches!(*line, "{" | "["))
        .last()
        .ok_or(format!("{bin}: no JSON document"))?
        .0;
    serde_json::from_str(&text[start..]).map_err(|e| format!("{bin}: {e}"))
}

#[track_caller]
fn golden(bin: &str) -> Value {
    document(bin).expect("the golden file ends in a JSON document")
}

// The accessors below are `#[track_caller]`, so a missing or mistyped
// field fails on the line that asked for it.

/// The rows of a document that is one array of objects.
#[track_caller]
fn rows(doc: &Value) -> &[Value] {
    match doc {
        Value::Array(rows) => Some(rows),
        _ => None,
    }
    .expect("an array")
}

#[track_caller]
fn field<'a>(row: &'a Value, key: &str) -> &'a Value {
    match row {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
    .expect("an object with this field")
}

#[track_caller]
fn number(v: &Value) -> f64 {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
    .expect("a number")
}

#[track_caller]
fn num(row: &Value, key: &str) -> f64 {
    number(field(row, key))
}

#[track_caller]
fn int(row: &Value, key: &str) -> i128 {
    match field(row, key) {
        Value::Int(i) => Some(*i),
        _ => None,
    }
    .expect("an integer")
}

#[track_caller]
fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    match field(row, key) {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
    .expect("a string")
}

/// `fig_serve`'s rows of one sweep.
fn sweep(name: &str) -> Vec<Value> {
    rows(&golden("fig_serve"))
        .iter()
        .filter(|r| text(r, "sweep") == name)
        .cloned()
        .collect()
}

/// Rows keyed by `key`; a later row replaces an earlier one with the
/// same key.
fn by<'a, K: Ord>(
    rows: impl IntoIterator<Item = &'a Value>,
    key: impl Fn(&'a Value) -> K,
) -> BTreeMap<K, &'a Value> {
    rows.into_iter().map(|r| (key(r), r)).collect()
}

/// A sweep's rows keyed by serving policy, which must be exactly FIFO,
/// EDF and priority.
#[track_caller]
fn by_policy(rows: &[Value]) -> BTreeMap<&str, &Value> {
    let map = by(rows, |r| text(r, "policy"));
    assert_eq!(
        map.keys().copied().collect::<Vec<_>>(),
        ["edf", "fifo", "prio"]
    );
    map
}

#[test]
fn every_golden_file_ends_in_a_json_document() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../golden");
    let mut bins: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter_map(|name| name.strip_suffix(".json").map(str::to_string))
        .collect();
    bins.sort();
    assert_eq!(bins.len(), 15, "one file per figure binary: {bins:?}");
    let broken: Vec<String> = bins
        .iter()
        .filter_map(|bin| match document(bin) {
            Ok(Value::Array(v)) if !v.is_empty() => None,
            Ok(Value::Object(v)) if !v.is_empty() => None,
            Ok(other) => Some(format!("{bin}: not a non-empty array or object: {other:?}")),
            Err(e) => Some(e),
        })
        .collect();
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn fig_scaling_covers_every_dispatch_and_channel_count() {
    let doc = golden("fig_scaling");
    let combos: BTreeSet<(&str, i128)> = rows(&doc)
        .iter()
        .map(|r| (text(r, "dispatch"), int(r, "channels")))
        .collect();
    for dispatch in ["Ambit", "FCDRAM"] {
        for ch in [1, 2, 4, 8] {
            assert!(
                combos.contains(&(dispatch, ch)),
                "missing {dispatch} × {ch}ch"
            );
        }
    }
    for r in rows(&doc) {
        assert!(num(r, "gemv_ms") > 0.0 && num(r, "gemm_ms") > 0.0, "{r:?}");
    }
}

#[test]
fn fig_scaling_salp_multiplies_gemv_throughput_8x_from_1_to_32_subarrays() {
    let doc = golden("fig_scaling");
    let salp = by(
        rows(&doc)
            .iter()
            .filter(|r| text(r, "dispatch") == "Ambit/SALP"),
        |r| (int(r, "channels"), int(r, "subarrays")),
    );
    for ch in [1, 4] {
        for sub in [1, 8, 32, 128] {
            assert!(
                salp.contains_key(&(ch, sub)),
                "missing Ambit/SALP {ch}ch × {sub}sub"
            );
        }
    }
    let ratio = num(salp[&(1, 32)], "gemv_gops") / num(salp[&(1, 1)], "gemv_gops");
    assert!(
        ratio >= 8.0,
        "SALP 1 → 32 subarrays only {ratio:.1}× GEMV throughput"
    );
}

#[test]
fn fig_serve_batching_beats_batch_one() {
    let batching = sweep("batching");
    for ch in [1, 4] {
        let group: Vec<&Value> = batching
            .iter()
            .filter(|r| int(r, "channels") == ch)
            .collect();
        assert!(group.len() >= 4, "{ch}ch: {} batching rows", group.len());
        let base = group
            .iter()
            .find(|r| int(r, "max_batch") == 1)
            .expect("a batch-1 row");
        for r in group.iter().filter(|r| int(r, "max_batch") > 1) {
            assert!(
                num(r, "throughput_rps") > num(base, "throughput_rps"),
                "{ch}ch batch {} does not beat batch 1",
                int(r, "max_batch")
            );
        }
    }
}

#[test]
fn fig_serve_async_planning_cuts_latency() {
    let rows = sweep("async");
    let mode = |m: &str| {
        rows.iter()
            .find(|r| text(r, "mode") == m)
            .unwrap_or_else(|| panic!("no {m} row"))
    };
    let (sync, asy) = (mode("sync"), mode("async"));
    assert!(num(asy, "mean_us") < num(sync, "mean_us"));
    assert!(num(asy, "throughput_rps") >= num(sync, "throughput_rps"));
}

#[test]
fn fig_serve_weighted_sizing_beats_the_even_split() {
    let rows = sweep("sizing");
    let sizing = |s: &str| {
        rows.iter()
            .find(|r| text(r, "sizing") == s)
            .unwrap_or_else(|| panic!("no {s} row"))
    };
    assert!(num(sizing("weighted"), "throughput_rps") > num(sizing("even"), "throughput_rps"));
}

#[test]
fn fig_serve_edf_protects_the_high_class_for_at_most_10pct_throughput() {
    let rows = sweep("slo");
    let slo = by_policy(&rows);
    let (edf, fifo) = (slo["edf"], slo["fifo"]);
    assert!(num(edf, "p99_hi_us") < num(fifo, "p99_hi_us"));
    assert!(num(edf, "miss_hi") < num(fifo, "miss_hi"));
    assert!(num(edf, "throughput_rps") >= 0.9 * num(fifo, "throughput_rps"));
}

#[test]
fn fig_serve_oversubscribed_residency_reloads_and_edf_still_wins() {
    let rows = sweep("residency");
    let res = by_policy(&rows);
    for (pol, r) in &res {
        assert!(int(r, "reloads") > 0, "{pol}: no mask reloads");
    }
    assert!(num(res["edf"], "p99_hi_us") < num(res["fifo"], "p99_hi_us"));
}

#[test]
fn fig_serve_slotted_salp_residency_never_prices_below_the_flat_model() {
    let rows = sweep("salp_residency");
    for pol in ["fifo", "edf", "prio"] {
        let group = by(rows.iter().filter(|r| text(r, "policy") == pol), |r| {
            int(r, "residency_slots")
        });
        assert_eq!(group.keys().copied().collect::<Vec<_>>(), [1, 8], "{pol}");
        for r in group.values() {
            assert!(int(r, "subarrays") == 8 && int(r, "reloads") > 0, "{r:?}");
        }
        assert!(
            int(group[&8], "reloads") >= int(group[&1], "reloads"),
            "{pol}"
        );
        assert!(
            num(group[&8], "reload_us") >= num(group[&1], "reload_us"),
            "{pol}"
        );
    }
}

#[test]
fn fig_serve_power_caps_hold_at_a_latency_cost_and_batching_saves_energy() {
    let en = sweep("energy");
    assert!(!en.is_empty(), "energy sweep missing");
    for pol in ["fifo", "edf", "prio"] {
        let of_policy = || en.iter().filter(move |r| text(r, "policy") == pol);
        let uncapped = by(of_policy().filter(|r| num(r, "cap_w") == 0.0), |r| {
            int(r, "max_batch")
        });
        assert_eq!(
            uncapped.keys().copied().collect::<Vec<_>>(),
            [1, 8],
            "{pol}"
        );
        assert!(
            num(uncapped[&8], "j_per_req") < num(uncapped[&1], "j_per_req"),
            "{pol}: batched J/request must beat serial"
        );
        for r in of_policy().filter(|r| num(r, "cap_w") > 0.0) {
            let batch = int(r, "max_batch");
            assert!(
                num(r, "j_per_req_hi") > 0.0 && num(r, "j_per_req_lo") > 0.0,
                "{r:?}"
            );
            assert!(
                num(r, "peak_power_w") <= num(r, "cap_w") * (1.0 + 1e-9),
                "{pol} batch {batch}: window power {} W breaches cap {} W",
                num(r, "peak_power_w"),
                num(r, "cap_w")
            );
            let base = uncapped[&batch];
            assert!(
                num(r, "mean_us") > num(base, "mean_us"),
                "{pol} batch {batch}: cap compliance must cost latency"
            );
            assert!(
                num(r, "avg_power_w") < num(base, "avg_power_w"),
                "{pol} batch {batch}"
            );
        }
    }
}

// ---- the fault studies (figs. 4 and 17) ----

/// fig4(a)'s rows: `fig4 --json` is `[RMSE rows, [rate, JC F1, RCA F1]
/// rows]`, and each RMSE row holds one fault rate.
fn fig4_rmse_rows() -> Vec<Value> {
    rows(&rows(&golden("fig4"))[0]).to_vec()
}

/// The `(rate, value)` points of fig17's series `name` in `panel` (the
/// last one, should a name repeat): `fig17 --json` is `[DNA F1 series,
/// BERT-proxy accuracy (%) series]`, each series `{"name", "values":
/// [[rate, value], ...]}`.
#[track_caller]
fn fig17_series(panel: usize, name: &str) -> Vec<(f64, f64)> {
    let series = rows(&golden("fig17"))[panel].clone();
    let found = rows(&series)
        .iter()
        .rfind(|s| text(s, "name") == name)
        .expect("the series is present");
    rows(field(found, "values"))
        .iter()
        .map(|point| match rows(point) {
            [rate, value] => Some((number(rate), number(value))),
            _ => None,
        })
        .collect::<Option<_>>()
        .expect("[rate, value] pairs")
}

#[test]
fn fig4_sweeps_six_fault_rates() {
    assert_eq!(fig4_rmse_rows().len(), 6);
}

#[test]
fn fig4_ecc_never_raises_jc_or_rca_rmse() {
    for r in &fig4_rmse_rows() {
        for backend in ["jc", "rca"] {
            let ecc = num(r, &format!("{backend}_ecc"));
            assert!(
                ecc <= num(r, backend),
                "fig4(a) {:e}: {backend} ECC RMSE {ecc} above unprotected {}",
                num(r, "rate"),
                num(r, backend)
            );
        }
    }
}

#[test]
fn fig4_jc_rmse_is_below_rca_at_every_rate() {
    for r in &fig4_rmse_rows() {
        assert!(
            num(r, "jc") < num(r, "rca"),
            "fig4(a) {:e}: JC RMSE {} not below RCA {}",
            num(r, "rate"),
            num(r, "jc"),
            num(r, "rca")
        );
    }
}

#[test]
fn fig17_jc_ecc_keeps_dna_f1_at_1_up_to_1e_3() {
    for (rate, f1) in fig17_series(0, "JC+ECC") {
        if rate <= 1e-3 {
            assert!(f1 == 1.0, "fig17(a) JC+ECC F1 {f1} at {rate:e}");
        }
    }
}

/// This claim holds at the committed seed only: offsetting every fig17
/// seed by 100,000·k for k = 0…7, accuracy at 1e-2 read 100% for just
/// k = 0 and 5 (ROADMAP *Correctness*). It is kept exactly as the paper
/// states it until direction 4 restates the fault claims on intervals.
#[test]
fn fig17_jc_ecc_keeps_bert_proxy_accuracy_at_100pct_up_to_1e_2() {
    for (rate, acc) in fig17_series(1, "JC+ECC") {
        if rate <= 1e-2 {
            assert!(acc == 100.0, "fig17(b) JC+ECC accuracy {acc}% at {rate:e}");
        }
    }
}

/// fig14's rows keyed by shape id, which must be exactly V0–V4 and
/// M0–M4.
#[track_caller]
fn fig14_shapes(doc: &Value) -> BTreeMap<&str, &Value> {
    let shapes = by(rows(doc), |r| text(r, "id"));
    assert_eq!(
        shapes.keys().copied().collect::<Vec<_>>(),
        ["M0", "M1", "M2", "M3", "M4", "V0", "V1", "V2", "V3", "V4"]
    );
    shapes
}

#[test]
fn fig14_c2m_beats_simdram_in_gops_gops_per_watt_and_gops_per_mm2() {
    let doc = golden("fig14");
    for (id, r) in fig14_shapes(&doc) {
        // The `*_rel` metrics share each shape's GPU denominator.
        for (c2m, simdram) in [
            ("c2m_gops", "simdram_gops"),
            ("c2m_gpw_rel", "simdram_gpw_rel"),
            ("c2m_gpa_rel", "simdram_gpa_rel"),
        ] {
            assert!(
                num(r, c2m) > num(r, simdram),
                "fig14 {id}: {c2m} {} not above {simdram} {}",
                num(r, c2m),
                num(r, simdram)
            );
        }
    }
}

#[test]
fn fig14_gpu_beats_c2m_in_gops_on_every_dense_gemm() {
    let doc = golden("fig14");
    for (id, r) in fig14_shapes(&doc) {
        if id.starts_with('M') {
            assert!(
                num(r, "gpu_gops") > num(r, "c2m_gops"),
                "fig14 {id}: GPU {} GOPS not above C2M {}",
                num(r, "gpu_gops"),
                num(r, "c2m_gops")
            );
        }
    }
}

#[test]
fn fig8_iarm_stays_below_the_32_bit_rca_at_radices_4_to_8() {
    let doc = golden("fig8");
    let radices = by(rows(&doc), |r| int(r, "radix"));
    let rca_i32 = c2m_jc::cost::rca_add_ops(32) as f64;
    for radix in [4, 6, 8] {
        let iarm = num(radices[&radix], "iarm");
        assert!(
            iarm < rca_i32,
            "fig8 radix {radix}: IARM {iarm} AAPs not below RCA_i32 {rca_i32}"
        );
    }
}

#[test]
fn fig19_radix_4_needs_exactly_the_binary_bit_count() {
    let doc = golden("fig19");
    assert_eq!(rows(&doc).len(), 8, "capacities 2^4 … 2^32");
    for r in rows(&doc) {
        assert_eq!(
            int(r, "radix4"),
            int(r, "binary"),
            "fig19 at 2^{}",
            int(r, "capacity_bits")
        );
    }
}

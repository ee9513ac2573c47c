//! Host access path vs CIM issue rate (§5.1, Table 2).
//!
//! Count2Multiply's execution model has the host stream the input
//! matrix X out of DRAM (FR-FCFS scheduled reads) while the controller
//! broadcasts μPrograms. The paper claims host-side μProgram generation
//! is "negligible, as the AAP/AP processing rate of the DRAM module is
//! generally much lower". This bench quantifies that: sustained host
//! read bandwidth (elements/µs) vs the CIM AAP issue rate for 1/4/16
//! banks, with and without refresh overhead.

use c2m_bench::{fail, header, json_only, maybe_json};
use c2m_dram::scheduler::steady_state_aap_interval;
use c2m_dram::{MemoryRequest, RefreshModel, RequestQueue, TimingParams};
use serde::Serialize;

#[derive(Serialize)]
struct HostRow {
    pattern: String,
    hit_rate: f64,
    mean_latency_ns: f64,
    reads_per_us: f64,
    /// 8-byte elements per µs (a 64-byte burst carries 8 int64 X values).
    elements_per_us: f64,
}

#[derive(Serialize)]
struct CimRow {
    banks: usize,
    aap_interval_ns: f64,
    aaps_per_us: f64,
    aaps_per_us_with_refresh: f64,
}

fn host_pattern(name: &str, reqs: &[MemoryRequest], banks: usize) -> HostRow {
    let mut q = RequestQueue::new(TimingParams::ddr5_4400(), banks);
    let rep = q.run(reqs);
    HostRow {
        pattern: name.to_string(),
        hit_rate: rep.hit_rate(),
        mean_latency_ns: rep.mean_latency_ns(),
        reads_per_us: rep.requests_per_us(),
        elements_per_us: rep.requests_per_us() * 8.0,
    }
}

fn main() {
    json_only("hostpath").unwrap_or_else(|e| fail(&e));
    header("hostpath", "§5.1 host read path vs CIM issue rate");
    let banks = 16;
    let n = 4096;

    // Streaming read of X: sequential columns of consecutive rows,
    // bank-interleaved — the layout a real allocator would pick.
    let stream: Vec<MemoryRequest> = (0..n)
        .map(|i| MemoryRequest::read(0.0, i % banks, i / (banks * 16)))
        .collect();
    // Adversarial pattern: every read conflicts in one bank.
    let conflict: Vec<MemoryRequest> = (0..n).map(|i| MemoryRequest::read(0.0, 0, i)).collect();

    println!(
        "\n{:>12} | {:>8} {:>14} {:>12} {:>14}",
        "pattern", "hit rate", "mean lat (ns)", "reads/µs", "int64 X/µs"
    );
    let mut host_rows = Vec::new();
    for (name, reqs) in [("streaming", &stream), ("conflicting", &conflict)] {
        let r = host_pattern(name, reqs, banks);
        println!(
            "{:>12} | {:>8.2} {:>14.1} {:>12.1} {:>14.1}",
            r.pattern, r.hit_rate, r.mean_latency_ns, r.reads_per_us, r.elements_per_us
        );
        host_rows.push(r);
    }

    // CIM side: steady-state AAP rate per bank count, derated by refresh.
    let t = TimingParams::ddr5_4400();
    let refresh = RefreshModel::ddr5_4400();
    println!(
        "\n{:>5} | {:>16} {:>10} {:>16}",
        "banks", "AAP interval ns", "AAPs/µs", "AAPs/µs (+REF)"
    );
    let mut cim_rows = Vec::new();
    for banks in [1usize, 4, 16] {
        let interval = steady_state_aap_interval(&t, banks, 1, 1);
        let rate = 1000.0 / interval;
        let derated = rate * (1.0 - refresh.overhead_fraction());
        println!(
            "{:>5} | {:>16.1} {:>10.1} {:>16.1}",
            banks, interval, rate, derated
        );
        cim_rows.push(CimRow {
            banks,
            aap_interval_ns: interval,
            aaps_per_us: rate,
            aaps_per_us_with_refresh: derated,
        });
    }

    // The paper's claim holds iff the host can deliver X elements faster
    // than the module consumes μProgram steps (each X element expands to
    // tens of AAPs, widening the margin further).
    let margin = host_rows[0].elements_per_us / cim_rows[2].aaps_per_us;
    println!(
        "\nstreaming X supply / 16-bank AAP demand = {margin:.1}x \
         (>1 means the host path is never the bottleneck)"
    );

    #[derive(Serialize)]
    struct Output {
        host: Vec<HostRow>,
        cim: Vec<CimRow>,
        supply_demand_ratio: f64,
    }
    maybe_json(&Output {
        host: host_rows,
        cim: cim_rows,
        supply_demand_ratio: margin,
    });
}

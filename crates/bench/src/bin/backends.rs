//! Backend ablation (extension of Fig. 10 / §4.6): device-operation cost
//! of one Johnson-counter increment (with overflow check) on each CIM
//! technology, measured by running the generic counting program on the
//! [`c2m_cim::LogicMachine`] (see [`Backend::increment_ops`] — the same
//! cost model heterogeneous shard dispatch prices with).

use c2m_bench::{fail, header, json_only, maybe_json};
use c2m_cim::Backend;
use serde::Serialize;

#[derive(Serialize)]
struct BackendRow {
    backend: String,
    ops_n2: u64,
    ops_n5: u64,
    ops_n8: u64,
}

fn main() {
    json_only("backends").unwrap_or_else(|e| fail(&e));
    header(
        "backends",
        "§4.6 ablation: counting cost per CIM technology",
    );
    println!(
        "\n{:>10} | {:>8} {:>8} {:>8}",
        "backend", "n=2", "n=5", "n=8"
    );
    let mut rows = Vec::new();
    for b in Backend::ALL {
        let row = BackendRow {
            backend: b.name().to_string(),
            ops_n2: b.increment_ops(2),
            ops_n5: b.increment_ops(5),
            ops_n8: b.increment_ops(8),
        };
        println!(
            "{:>10} | {:>8} {:>8} {:>8}",
            row.backend, row.ops_n2, row.ops_n5, row.ops_n8
        );
        rows.push(row);
    }
    println!("\npaper anchors: Ambit optimised μProgram 7n+7;");
    println!("Pinatubo-style non-stateful ~3n+4 (+3 overflow); MAGIC NOR-only ~6n+4");
    println!("(generic lowering shown here is an upper bound for Ambit — the");
    println!(" hand-scheduled Fig. 6b μProgram in c2m-jc::ambit_lower hits 7n+7)");
    maybe_json(&rows);
}

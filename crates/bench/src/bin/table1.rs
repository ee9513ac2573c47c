//! Table 1 — FR-check count vs undetected-error and detect rates.

use c2m_bench::{fail, header, json_only, maybe_json};
use c2m_ecc::protect::{ProtectionAnalysis, ProtectionKind};
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    fr_checks: u32,
    fault_rate: f64,
    error_rate: f64,
    detect_rate: f64,
}

fn main() {
    json_only("table1").unwrap_or_else(|e| fail(&e));
    header(
        "table1",
        "Protection scheme: FR checks vs error/detect rates",
    );
    let rates = [1e-1, 1e-2, 1e-4];
    let checks = [2u32, 4, 6];

    println!(
        "\n{:>9} | {:>11} {:>11} {:>11} | {:>11} {:>11} {:>11}",
        "FR checks", "err@1e-1", "err@1e-2", "err@1e-4", "det@1e-1", "det@1e-2", "det@1e-4"
    );
    let mut cells = Vec::new();
    for &r in &checks {
        let mut err = Vec::new();
        let mut det = Vec::new();
        for &p in &rates {
            let a = ProtectionAnalysis {
                fault_rate: p,
                fr_checks: r,
            };
            err.push(a.undetected_error_rate());
            det.push(a.detect_rate());
            cells.push(Cell {
                fr_checks: r,
                fault_rate: p,
                error_rate: a.undetected_error_rate(),
                detect_rate: a.detect_rate(),
            });
        }
        println!(
            "{:>9} | {:>11.1e} {:>11.1e} {:>11.1e} | {:>11.1e} {:>11.1e} {:>11.1e}",
            r, err[0], err[1], err[2], det[0], det[1], det[2]
        );
    }

    println!("\nAmbit op counts per k-ary increment (n-bit digit):");
    println!("{:>12} {:>14}", "scheme", "ops(n)");
    println!("{:>12} {:>14}", "unprotected", "7n+7");
    for &r in &checks {
        let k = ProtectionKind::Ecc {
            fr_checks: r,
            fuse_inverted_feedback: false,
        };
        // Verify against the closed form at n = 5 and print symbolically.
        let at5 = k.ambit_increment_ops(5);
        let a = at5 - k.ambit_increment_ops(4); // slope
        let b = at5 - 5 * a;
        println!(
            "{:>12} {:>14}",
            format!("{r} FR checks"),
            format!("{a}n+{b}")
        );
    }
    println!("{:>12} {:>14}", "TMR", format!("{}n+{}", 4 * 7, 4 * 7));
    println!("\npaper Table 1: error ≈ 1.4-1.5·p^(r+1) (floor 1e-20), 13n+16 / 23n+26 / 33n+36");
    maybe_json(&cells);
}

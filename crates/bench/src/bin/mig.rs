//! MIG-synthesis ablation (§4.2): sizes, depths and lowering costs of
//! the Fig. 6a counting circuits, and the gap between the generic MIG
//! scheduler and the paper's hand-tuned Fig. 6b template (7n + 7).
//!
//! Regenerates the synthesis-side numbers behind the μProgram pipeline:
//! for each circuit we report majority-node count before/after
//! optimisation and the Ambit macro-command count of the generic
//! lowering; for whole counter steps we compare against the
//! `c2m_jc::ambit_lower` hand schedule.

use c2m_bench::{fail, header, json_only, maybe_json};
use c2m_jc::ambit_lower::{lower_step, CounterLayout};
use c2m_jc::kary::TransitionPattern;
use c2m_mig::counting;
use c2m_mig::lower::{Lowerer, PinMap};
use c2m_mig::rewrite::optimize_size;
use serde::Serialize;

#[derive(Serialize)]
struct CircuitRow {
    circuit: String,
    nodes: usize,
    nodes_opt: usize,
    depth: usize,
    commands: usize,
}

#[derive(Serialize)]
struct StepRow {
    n: usize,
    hand_commands: usize,
    generic_commands: usize,
    ratio: f64,
}

fn circuit_row(name: &str, c: &counting::Circuit) -> CircuitRow {
    let opt = optimize_size(&c.mig, &c.outputs);
    let pins = PinMap::dense(c.mig.num_pis(), c.mig.num_pis() + 2);
    let lowered = Lowerer::new(&opt.mig, &pins).lower(&opt.outputs);
    CircuitRow {
        circuit: name.to_string(),
        nodes: c.size(),
        nodes_opt: opt.mig.node_count(&opt.outputs),
        depth: c.depth(),
        commands: lowered.command_count(),
    }
}

fn main() {
    json_only("mig").unwrap_or_else(|e| fail(&e));
    header(
        "mig",
        "§4.2 MIG synthesis: circuit sizes and lowering costs",
    );

    println!(
        "\n{:>18} | {:>6} {:>10} {:>6} {:>9}",
        "circuit", "nodes", "nodes(opt)", "depth", "commands"
    );
    let mut rows = Vec::new();
    for (name, c) in [
        ("forward_shift", counting::forward_shift()),
        ("inverted_feedback", counting::inverted_feedback()),
        ("overflow", counting::overflow()),
        ("overflow_masked", counting::overflow_masked()),
        ("xor_embedding", counting::xor_embedding()),
    ] {
        let r = circuit_row(name, &c);
        println!(
            "{:>18} | {:>6} {:>10} {:>6} {:>9}",
            r.circuit, r.nodes, r.nodes_opt, r.depth, r.commands
        );
        rows.push(r);
    }

    // Whole unit-increment steps: hand-tuned Fig. 6b vs generic MIG
    // lowering. The hand schedule keeps operands resident in B-group
    // rows across gates; the generic one stores every node — the paper's
    // template optimisation is this ratio.
    println!(
        "\n{:>3} | {:>14} {:>17} {:>6}",
        "n", "hand (7n+7)", "generic MIG", "ratio"
    );
    let mut steps = Vec::new();
    for n in [4usize, 5, 8, 10] {
        let layout = CounterLayout::dense(n, 0);
        let pattern = TransitionPattern::increment(n, 1);
        let hand = lower_step(&layout, &pattern).len();

        let circuit = counting::unit_increment(n);
        let pins = PinMap::dense(n + 1, n + 3);
        let generic = Lowerer::new(&circuit.mig, &pins)
            .lower(&circuit.outputs)
            .command_count();
        let row = StepRow {
            n,
            hand_commands: hand,
            generic_commands: generic,
            ratio: generic as f64 / hand as f64,
        };
        println!(
            "{:>3} | {:>14} {:>17} {:>6.2}",
            row.n, row.hand_commands, row.generic_commands, row.ratio
        );
        steps.push(row);
    }

    #[derive(Serialize)]
    struct Output {
        circuits: Vec<CircuitRow>,
        steps: Vec<StepRow>,
    }
    maybe_json(&Output {
        circuits: rows,
        steps,
    });
}

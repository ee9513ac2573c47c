//! Co-simulation: bit-accurate execution with cycle-accurate timing.
//!
//! The paper evaluates Count2Multiply on a cycle-level NVMain extension
//! that models both *what* the DRAM computes and *when* each command
//! issues. This repository normally splits those concerns — functional
//! kernels (`crate::kernels`) for correctness, the analytic engine
//! (`crate::engine`) for paper-scale timing. [`CoSim`] joins them for
//! the scales where both are tractable: every macro command of a
//! μProgram is executed on a real [`AmbitSubarray`] *and* issued to the
//! [`ChannelScheduler`], so one run yields the result bits, the command
//! mix, the elapsed time and the energy, exactly like the authors'
//! simulator.
//!
//! [`BankedCoSim`] extends this to SIMD-style broadcast over several
//! banks (§5.1: the controller replicates a μProgram across CIM
//! subarrays): each bank holds its own subarray state; per-step
//! commands interleave across banks under `tRRD`/`tFAW`, reproducing
//! the §7.2.1 overlap on *functional* state.

use c2m_cim::ambit::{AmbitSubarray, MicroOp, MicroProgram};
use c2m_cim::{FaultModel, Row};
use c2m_dram::{
    AreaModel, ChannelScheduler, CommandKind, DramConfig, EnergyModel, ExecutionReport,
    TimingParams,
};

/// Functional + timing co-simulation of one CIM subarray on one bank.
#[derive(Debug, Clone)]
pub struct CoSim {
    sub: AmbitSubarray,
    sched: ChannelScheduler,
    bank: usize,
}

impl CoSim {
    /// Creates a co-simulator: a `width`-column subarray with
    /// `data_rows` D-group rows, living on `bank` of a channel with
    /// `banks` banks under Table 2 timing.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= banks`.
    #[must_use]
    pub fn new(width: usize, data_rows: usize, banks: usize, bank: usize) -> Self {
        Self::with_faults(width, data_rows, banks, bank, FaultModel::fault_free())
    }

    /// Co-simulator with fault injection on TRA results.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= banks`.
    #[must_use]
    pub fn with_faults(
        width: usize,
        data_rows: usize,
        banks: usize,
        bank: usize,
        faults: FaultModel,
    ) -> Self {
        assert!(bank < banks, "bank {bank} out of range ({banks} banks)");
        Self {
            sub: AmbitSubarray::with_faults(width, data_rows, faults),
            sched: ChannelScheduler::new(TimingParams::ddr5_4400(), banks),
            bank,
        }
    }

    /// The functional subarray (host read/write access).
    #[must_use]
    pub fn subarray(&self) -> &AmbitSubarray {
        &self.sub
    }

    /// Mutable access for seeding rows before execution.
    pub fn subarray_mut(&mut self) -> &mut AmbitSubarray {
        &mut self.sub
    }

    /// Elapsed simulated time so far, ns.
    #[must_use]
    pub fn elapsed_ns(&self) -> f64 {
        self.sched.elapsed_ns()
    }

    /// Executes a μProgram: every command updates the row state and
    /// advances the channel clock. Returns the elapsed time after the
    /// program completes.
    pub fn execute(&mut self, prog: &MicroProgram) -> f64 {
        for &op in prog.ops() {
            let kind = match op {
                MicroOp::Aap(..) => CommandKind::Aap,
                MicroOp::Ap(..) => CommandKind::Ap,
            };
            self.sub.execute_op(op);
            self.sched
                .issue(c2m_dram::DramCommand::new(self.bank, kind));
        }
        self.sched.elapsed_ns()
    }

    /// Builds the full execution report for the work done so far.
    #[must_use]
    pub fn report(&self, useful_ops: u64) -> ExecutionReport {
        let cfg = DramConfig::ddr5_4400();
        ExecutionReport::from_run(
            self.sched.elapsed_ns(),
            self.sched.stats().clone(),
            useful_ops,
            &EnergyModel::ddr5_4400(),
            &AreaModel::ddr5_4400(),
            &cfg,
        )
    }
}

/// SIMD broadcast co-simulation: the same μProgram stream replicated
/// over `banks` subarrays, commands interleaved step-by-step so the
/// scheduler sees the §7.2.1 overlap pattern.
#[derive(Debug, Clone)]
pub struct BankedCoSim {
    subs: Vec<AmbitSubarray>,
    sched: ChannelScheduler,
}

impl BankedCoSim {
    /// Creates `banks` identical subarrays on one channel.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    #[must_use]
    pub fn new(width: usize, data_rows: usize, banks: usize) -> Self {
        assert!(banks > 0, "need at least one bank");
        Self {
            subs: vec![AmbitSubarray::new(width, data_rows); banks],
            sched: ChannelScheduler::new(TimingParams::ddr5_4400(), banks),
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.subs.len()
    }

    /// Seeds a data row on one bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range (row bounds checked by the
    /// subarray).
    pub fn write_data(&mut self, bank: usize, row: usize, value: &Row) {
        self.subs[bank].write_data(row, value);
    }

    /// Reads a data row on one bank.
    #[must_use]
    pub fn read_data(&self, bank: usize, row: usize) -> &Row {
        self.subs[bank].read_data(row)
    }

    /// Broadcasts a μProgram to every bank: for each program step, the
    /// controller issues the command to bank 0, 1, … in turn (the
    /// command-interleaving that lets `tRRD`-spaced activations
    /// overlap), and every bank's row state advances.
    pub fn broadcast(&mut self, prog: &MicroProgram) -> f64 {
        for &op in prog.ops() {
            let kind = match op {
                MicroOp::Aap(..) => CommandKind::Aap,
                MicroOp::Ap(..) => CommandKind::Ap,
            };
            for (bank, sub) in self.subs.iter_mut().enumerate() {
                sub.execute_op(op);
                self.sched.issue(c2m_dram::DramCommand::new(bank, kind));
            }
        }
        self.sched.elapsed_ns()
    }

    /// Elapsed simulated time, ns.
    #[must_use]
    pub fn elapsed_ns(&self) -> f64 {
        self.sched.elapsed_ns()
    }

    /// Execution report over everything broadcast so far.
    #[must_use]
    pub fn report(&self, useful_ops: u64) -> ExecutionReport {
        let cfg = DramConfig::ddr5_4400();
        ExecutionReport::from_run(
            self.sched.elapsed_ns(),
            self.sched.stats().clone(),
            useful_ops,
            &EnergyModel::ddr5_4400(),
            &AreaModel::ddr5_4400(),
            &cfg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c2m_dram::scheduler::steady_state_aap_interval;
    use c2m_jc::ambit_lower::{lower_step, CounterLayout};
    use c2m_jc::kary::TransitionPattern;
    use c2m_jc::JohnsonCode;

    fn seeded_unit_increment(n: usize, width: usize) -> (CoSim, CounterLayout) {
        let layout = CounterLayout::dense(n, 0);
        let mut sim = CoSim::new(width, CounterLayout::rows_needed(n), 16, 0);
        let code = JohnsonCode::new(n);
        sim.subarray_mut()
            .write_data(layout.mask_row, &Row::ones(width));
        for col in 0..width {
            for i in 0..n {
                let mut row = sim.subarray().read_data(layout.bit_rows[i]).clone();
                row.set(col, code.bit(col % (2 * n), i));
                sim.subarray_mut().write_data(layout.bit_rows[i], &row);
            }
        }
        (sim, layout)
    }

    #[test]
    fn cosim_computes_and_times_an_increment() {
        let n = 5;
        let width = 20;
        let (mut sim, layout) = seeded_unit_increment(n, width);
        let prog = lower_step(&layout, &TransitionPattern::increment(n, 1));
        let elapsed = sim.execute(&prog);
        assert!(elapsed > 0.0);
        // Functional: every column advanced by one Johnson state.
        let code = JohnsonCode::new(n);
        for col in 0..width {
            let mut bits = 0u64;
            for i in 0..n {
                if sim.subarray().read_data(layout.bit_rows[i]).get(col) {
                    bits |= 1 << i;
                }
            }
            let next = (col + 1) % (2 * n);
            assert_eq!(code.decode(bits), Some(next), "column {col}");
        }
        // Timing: single-bank occupancy bounds the elapsed time below.
        let t = TimingParams::ddr5_4400();
        let per = t.t_aap() + t.t_rrd;
        let lower = per * (prog.len() as f64 - 1.0);
        assert!(elapsed >= lower, "elapsed {elapsed} < {lower}");
    }

    #[test]
    fn cosim_report_has_consistent_metrics() {
        let n = 4;
        let (mut sim, layout) = seeded_unit_increment(n, 8);
        let prog = lower_step(&layout, &TransitionPattern::increment(n, 2));
        sim.execute(&prog);
        let report = sim.report(8 * 2);
        assert_eq!(report.stats.total(), prog.len() as u64);
        assert!(report.energy_nj > 0.0);
        assert!(report.gops() > 0.0);
        assert!(report.power_w() > 0.0);
    }

    #[test]
    fn broadcast_preserves_function_on_every_bank() {
        let n = 4;
        let width = 16;
        let banks = 4;
        let layout = CounterLayout::dense(n, 0);
        let mut sim = BankedCoSim::new(width, CounterLayout::rows_needed(n), banks);
        let code = JohnsonCode::new(n);
        for bank in 0..banks {
            sim.write_data(bank, layout.mask_row, &Row::ones(width));
            for col in 0..width {
                for i in 0..n {
                    let mut row = sim.read_data(bank, layout.bit_rows[i]).clone();
                    row.set(col, code.bit((col + bank) % (2 * n), i));
                    sim.write_data(bank, layout.bit_rows[i], &row);
                }
            }
        }
        let prog = lower_step(&layout, &TransitionPattern::increment(n, 1));
        sim.broadcast(&prog);
        for bank in 0..banks {
            for col in 0..width {
                let mut bits = 0u64;
                for i in 0..n {
                    if sim.read_data(bank, layout.bit_rows[i]).get(col) {
                        bits |= 1 << i;
                    }
                }
                let next = (col + bank + 1) % (2 * n);
                assert_eq!(code.decode(bits), Some(next), "bank {bank} col {col}");
            }
        }
    }

    #[test]
    fn broadcast_over_banks_approaches_scheduler_steady_state() {
        let n = 5;
        let layout = CounterLayout::dense(n, 0);
        let prog = lower_step(&layout, &TransitionPattern::increment(n, 1));
        let t = TimingParams::ddr5_4400();
        // Broadcasting the program to 16 banks issues 16x the commands
        // but takes far less than 16x one bank's time.
        let mut one = BankedCoSim::new(8, CounterLayout::rows_needed(n), 1);
        let t1 = one.broadcast(&prog);
        let mut many = BankedCoSim::new(8, CounterLayout::rows_needed(n), 16);
        let t16 = many.broadcast(&prog);
        assert!(t16 < t1 * 4.0, "16-bank {t16} vs 1-bank {t1}");
        // And the per-command interval approaches the analytic bound.
        let measured = t16 / (16.0 * prog.len() as f64);
        let analytic = steady_state_aap_interval(&t, 16, 1, 1);
        assert!(
            measured < analytic * 1.6,
            "measured {measured} vs analytic {analytic}"
        );
    }

    #[test]
    fn faulty_cosim_reports_injected_faults() {
        let n = 4;
        let layout = CounterLayout::dense(n, 0);
        let mut sim = CoSim::with_faults(
            256,
            CounterLayout::rows_needed(n),
            16,
            0,
            FaultModel::new(0.05, 7),
        );
        sim.subarray_mut()
            .write_data(layout.mask_row, &Row::ones(256));
        let prog = lower_step(&layout, &TransitionPattern::increment(n, 1));
        sim.execute(&prog);
        assert!(sim.subarray().faults_injected() > 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bank_panics() {
        let _ = CoSim::new(8, 4, 4, 9);
    }
}

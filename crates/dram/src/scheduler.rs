//! Multi-bank, multi-rank command scheduler enforcing `tRRD`/`tFAW`/`tAAP`.
//!
//! Reproduces the bank-level parallelism analysis of §7.2.1:
//!
//! * **1 bank** — one AAP every `tAAP + tRRD` (the second activation of the
//!   AAP sequence pushes the next issue out by `tRRD` past the bank's
//!   `tAAP` occupancy).
//! * **4 banks** — four AAPs overlap, separated by `tRRD`; the fifth can
//!   only start once the first finishes, so the first→fifth delay is still
//!   `tAAP + tRRD`.
//! * **16 banks** — issue rate is bounded by the four-activation window:
//!   the first→fifth delay becomes `tFAW`, which is *shorter* than `tAAP`.
//!
//! Beyond the paper's single-rank setup, the scheduler models multiple
//! ranks per channel: `tRRD` and `tFAW` are *per-rank* windows, so
//! interleaving ranks relaxes both, while consecutive commands to
//! different ranks pay the [`TimingParams::t_rank_switch`] bus-turnaround
//! gap.
//!
//! The engine prices every launch with the closed form
//! [`steady_state_aap_interval`]; [`ChannelScheduler`] is the
//! event-driven reference that the closed-form tests compare against.
//! Channels are independent, so a multi-channel system is one scheduler
//! per channel.

use crate::command::{CommandKind, DramCommand};
use crate::stats::CommandStats;
use crate::timing::TimingParams;

/// Event-driven scheduler for one DRAM channel with one or more ranks.
///
/// Commands are issued in program order; the scheduler advances a virtual
/// clock to the earliest time each command may legally issue and records
/// aggregate statistics. All times are in nanoseconds.
#[derive(Debug, Clone)]
pub struct ChannelScheduler {
    timing: TimingParams,
    banks_per_rank: usize,
    /// Concurrent SALP streams per bank (1 = no subarray parallelism).
    subarrays: usize,
    /// Earliest time each per-bank subarray stream can accept its next
    /// macro command, indexed `bank * subarrays + subarray` with `bank`
    /// the global rank-major index.
    bank_ready: Vec<f64>,
    /// Issue time of the most recent activation, per (rank, subarray)
    /// lane — SALP streams have independent activation windows.
    last_act: Vec<f64>,
    /// Ring buffer of the last four activation issue times per
    /// (rank, subarray) lane (for the per-lane tFAW window).
    act_window: Vec<[f64; 4]>,
    act_window_pos: Vec<usize>,
    /// Rank addressed by the most recent command, if any.
    last_rank: Option<usize>,
    now: f64,
    stats: CommandStats,
}

impl ChannelScheduler {
    /// Creates a scheduler for a channel with `ranks` ranks of
    /// `banks_per_rank` banks each and `subarrays` concurrent SALP
    /// streams per bank. Bank indices in commands passed to
    /// [`Self::issue`] are global and rank-major: bank `b` of rank `r`
    /// is `r * banks_per_rank + b` ([`Self::issue_salp`] takes the
    /// coordinates instead).
    ///
    /// Each stream has its own row buffer (so bank occupancy and the
    /// activation windows split per stream), but all streams share the
    /// channel's command-distribution slot: with more than one stream,
    /// consecutive commands serialize at
    /// [`TimingParams::t_subarray_gate`]. With `subarrays == 1` there is
    /// no slot contention (the pre-SALP model).
    ///
    /// # Panics
    ///
    /// Panics if `banks_per_rank`, `ranks` or `subarrays` is zero.
    #[must_use]
    pub fn with_subarrays(
        timing: TimingParams,
        banks_per_rank: usize,
        ranks: usize,
        subarrays: usize,
    ) -> Self {
        assert!(banks_per_rank > 0, "a rank must have at least one bank");
        assert!(ranks > 0, "a channel must have at least one rank");
        assert!(subarrays > 0, "a bank must have at least one subarray");
        Self {
            timing,
            banks_per_rank,
            subarrays,
            bank_ready: vec![0.0; banks_per_rank * ranks * subarrays],
            last_act: vec![f64::NEG_INFINITY; ranks * subarrays],
            act_window: vec![[f64::NEG_INFINITY; 4]; ranks * subarrays],
            act_window_pos: vec![0; ranks * subarrays],
            last_rank: None,
            now: 0.0,
            stats: CommandStats::default(),
        }
    }

    /// Total number of banks on the channel (all ranks).
    fn banks(&self) -> usize {
        self.bank_ready.len() / self.subarrays
    }

    /// Total elapsed simulated time (ns) — completion time of the latest
    /// command issued so far.
    #[must_use]
    pub fn elapsed_ns(&self) -> f64 {
        self.bank_ready.iter().fold(self.now, |acc, &t| acc.max(t))
    }

    /// Aggregate command statistics.
    #[must_use]
    pub fn stats(&self) -> &CommandStats {
        &self.stats
    }

    /// Issues a command, advancing the virtual clock. Returns the command's
    /// issue time in ns.
    pub fn issue(&mut self, cmd: DramCommand) -> f64 {
        assert!(
            cmd.bank < self.banks(),
            "bank {} out of range ({} banks)",
            cmd.bank,
            self.banks()
        );
        assert!(
            cmd.subarray < self.subarrays,
            "subarray {} out of range ({} streams)",
            cmd.subarray,
            self.subarrays
        );
        let t = self.earliest_issue(cmd);
        self.commit(cmd, t);
        t
    }

    /// Issues a macro command to subarray stream `subarray` of bank
    /// `bank` of rank `rank`, translating the coordinates to the global
    /// rank-major bank index [`Self::issue`] takes.
    pub fn issue_salp(
        &mut self,
        rank: usize,
        bank: usize,
        subarray: usize,
        kind: CommandKind,
    ) -> f64 {
        assert!(bank < self.banks_per_rank, "bank {bank} out of rank");
        self.issue(DramCommand::at_subarray(
            rank * self.banks_per_rank + bank,
            subarray,
            kind,
        ))
    }

    fn earliest_issue(&self, cmd: DramCommand) -> f64 {
        let rank = cmd.bank / self.banks_per_rank;
        // SALP streams split the per-rank activation windows and the
        // bank occupancy per (rank, subarray) lane / per-stream slot.
        let lane = rank * self.subarrays + cmd.subarray;
        let stream = cmd.bank * self.subarrays + cmd.subarray;
        let mut t = self.now;
        // Bus turnaround when the channel switches ranks.
        if self.last_rank.is_some_and(|r| r != rank) {
            t = t.max(self.now + self.timing.t_rank_switch);
        }
        // Shared-bank serialization point: with concurrent subarray
        // streams every command claims the channel's subarray-select /
        // global-bitline slot for `t_subarray_gate`. A single-stream
        // scheduler has no slot contention (bit-identical to pre-SALP).
        if self.subarrays > 1 && self.last_rank.is_some() {
            t = t.max(self.now + self.timing.t_subarray_gate);
        }
        if cmd.kind.activations() > 0 {
            // Inter-activation spacing (per lane).
            t = t.max(self.last_act[lane] + self.timing.t_rrd);
            // Four-activation window: the 4th-previous ACT on this lane
            // gates us.
            let oldest = self.act_window[lane][self.act_window_pos[lane]];
            t = t.max(oldest + self.timing.t_faw);
        }
        if cmd.kind.is_macro() || cmd.kind == CommandKind::Act {
            t = t.max(self.bank_ready[stream]);
        }
        t
    }

    fn commit(&mut self, cmd: DramCommand, t: f64) {
        let rank = cmd.bank / self.banks_per_rank;
        let lane = rank * self.subarrays + cmd.subarray;
        let stream = cmd.bank * self.subarrays + cmd.subarray;
        self.now = t;
        self.last_rank = Some(rank);
        if cmd.kind.activations() > 0 {
            self.last_act[lane] = t;
            self.act_window[lane][self.act_window_pos[lane]] = t;
            self.act_window_pos[lane] = (self.act_window_pos[lane] + 1) % 4;
        }
        self.bank_ready[stream] = t + self.occupancy_ns(cmd.kind);
        self.stats.record(cmd.kind);
    }

    /// How long a command of `kind` occupies its subarray stream after
    /// issue — the figure [`Self::commit`] books into `bank_ready`.
    fn occupancy_ns(&self, kind: CommandKind) -> f64 {
        match kind {
            CommandKind::Aap => self.timing.t_aap() + self.timing.t_rrd,
            CommandKind::Ap | CommandKind::Apa => self.timing.t_ap() + self.timing.t_rrd,
            CommandKind::Act => self.timing.t_ras,
            CommandKind::Pre => self.timing.t_rp,
            CommandKind::Rd | CommandKind::Wr => self.timing.t_burst,
        }
    }
}

/// Closed-form steady-state AAP issue interval for `ranks` ranks of
/// `banks_per_rank` banks with `subarrays` concurrent SALP streams per
/// bank, issuing round-robin on one channel, in ns — the analytical
/// check on the event-driven scheduler.
///
/// Bank occupancy spreads over `banks_per_rank × ranks` banks and the
/// streams. Rank interleaving relaxes the per-rank `tRRD` and `tFAW`
/// windows by the rank count (a given rank only sees every `ranks`-th
/// command), and each subarray stream has its own local row buffer, so
/// the windows split across the streams too. Two shared floors remain:
/// with `subarrays > 1` every command claims the shared global-bitline /
/// command-distribution slot ([`TimingParams::t_subarray_gate`]), and
/// with `ranks > 1` every command switches ranks
/// ([`TimingParams::t_rank_switch`]).
#[must_use]
pub fn steady_state_aap_interval(
    timing: &TimingParams,
    banks_per_rank: usize,
    ranks: usize,
    subarrays: usize,
) -> f64 {
    let s = subarrays as f64;
    let per_bank = timing.t_aap() + timing.t_rrd;
    let occ_bound = per_bank / (banks_per_rank * ranks) as f64 / s;
    let rrd_bound = timing.t_rrd / ranks as f64 / s;
    let faw_bound = timing.t_faw / (4.0 * ranks as f64) / s;
    let mut interval = occ_bound.max(rrd_bound).max(faw_bound);
    if subarrays > 1 {
        interval = interval.max(timing.t_subarray_gate);
    }
    if ranks > 1 {
        interval = interval.max(timing.t_rank_switch);
    }
    interval
}

/// Largest number of concurrent SALP streams that still speeds up the
/// steady-state AAP cadence: past this, the shared serialization floor
/// ([`TimingParams::t_subarray_gate`], plus the rank-switch gap on
/// multi-rank channels) binds and extra streams only add merge work.
/// The cap keeps elapsed time monotone non-increasing in the stream
/// count (every granted stream still divides the pre-SALP interval).
#[must_use]
pub fn salp_stream_cap(timing: &TimingParams, banks_per_rank: usize, ranks: usize) -> usize {
    let base = steady_state_aap_interval(timing, banks_per_rank, ranks, 1);
    let mut floor = timing.t_subarray_gate;
    if ranks > 1 {
        floor = floor.max(timing.t_rank_switch);
    }
    if floor <= 0.0 || !floor.is_finite() {
        return 1;
    }
    ((base / floor).floor() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(banks: usize) -> ChannelScheduler {
        ChannelScheduler::with_subarrays(TimingParams::ddr5_4400(), banks, 1, 1)
    }

    /// Issues an AAP to `bank` of a single-rank, single-stream channel.
    fn aap(s: &mut ChannelScheduler, bank: usize) -> f64 {
        s.issue(DramCommand::new(bank, CommandKind::Aap))
    }

    #[test]
    fn single_bank_rate_is_aap_plus_rrd() {
        let mut s = sched(1);
        let t0 = aap(&mut s, 0);
        let t1 = aap(&mut s, 0);
        let t = TimingParams::ddr5_4400();
        assert!((t1 - t0 - (t.t_aap() + t.t_rrd)).abs() < 1e-9);
    }

    #[test]
    fn four_banks_overlap_separated_by_rrd() {
        let mut s = sched(4);
        let times: Vec<f64> = (0..4).map(|b| aap(&mut s, b)).collect();
        let t = TimingParams::ddr5_4400();
        for w in times.windows(2) {
            assert!((w[1] - w[0] - t.t_rrd).abs() < 1e-9);
        }
        // Fifth command (bank 0 again) waits for the first to finish.
        let t4 = aap(&mut s, 0);
        assert!((t4 - times[0] - (t.t_aap() + t.t_rrd)).abs() < 1e-9);
    }

    #[test]
    fn sixteen_banks_bounded_by_faw() {
        let mut s = sched(16);
        let mut times = Vec::new();
        for i in 0..16 {
            times.push(aap(&mut s, i));
        }
        let t = TimingParams::ddr5_4400();
        // First -> fifth activation delay equals tFAW (< tAAP).
        assert!((times[4] - times[0] - t.t_faw).abs() < 1e-9);
        assert!(t.t_faw < t.t_aap());
    }

    #[test]
    fn event_driven_matches_closed_form_steady_state() {
        let t = TimingParams::ddr5_4400();
        for &banks in &[1usize, 2, 4, 8, 16] {
            let mut s = sched(banks);
            let n = 400;
            let mut first = 0.0;
            let mut last = 0.0;
            for i in 0..n {
                let ti = aap(&mut s, i % banks);
                if i == 0 {
                    first = ti;
                }
                last = ti;
            }
            let measured = (last - first) / (n - 1) as f64;
            let analytic = steady_state_aap_interval(&t, banks, 1, 1);
            assert!(
                (measured - analytic).abs() / analytic < 0.02,
                "banks={banks}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn more_banks_never_slower() {
        let t = TimingParams::ddr5_4400();
        let mut prev = f64::INFINITY;
        for &banks in &[1usize, 2, 4, 8, 16, 32] {
            let interval = steady_state_aap_interval(&t, banks, 1, 1);
            assert!(interval <= prev + 1e-12);
            prev = interval;
        }
    }

    #[test]
    fn stats_count_commands() {
        let mut s = sched(4);
        for i in 0..10 {
            aap(&mut s, i % 4);
        }
        s.issue(DramCommand::new(0, CommandKind::Ap));
        assert_eq!(s.stats().count(CommandKind::Aap), 10);
        assert_eq!(s.stats().count(CommandKind::Ap), 1);
        assert_eq!(s.stats().total(), 11);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn issue_to_missing_bank_panics() {
        let mut s = sched(2);
        s.issue(DramCommand::new(5, CommandKind::Aap));
    }

    // ---- §7.2.1 invariants, pinned explicitly against Table 2 timing ----

    #[test]
    fn paper_7_2_1_invariants_pinned() {
        let t = TimingParams::ddr5_4400();
        // 1 bank: first -> next = tAAP + tRRD.
        let mut s1 = sched(1);
        let a = aap(&mut s1, 0);
        let b = aap(&mut s1, 0);
        assert!((b - a - (t.t_aap() + t.t_rrd)).abs() < 1e-9);
        // 4 banks: first -> fifth = tAAP + tRRD.
        let mut s4 = sched(4);
        let first = aap(&mut s4, 0);
        for bank in 1..4 {
            aap(&mut s4, bank);
        }
        let fifth = aap(&mut s4, 0);
        assert!((fifth - first - (t.t_aap() + t.t_rrd)).abs() < 1e-9);
        // 16 banks: first -> fifth = tFAW.
        let mut s16 = sched(16);
        let first = aap(&mut s16, 0);
        for bank in 1..4 {
            aap(&mut s16, bank);
        }
        let fifth = aap(&mut s16, 4);
        assert!((fifth - first - t.t_faw).abs() < 1e-9);
    }

    // ---- multi-rank behaviour ----

    #[test]
    fn rank_switch_pays_turnaround() {
        let t = TimingParams::ddr5_4400();
        let mut s = ChannelScheduler::with_subarrays(t, 1, 2, 1);
        let t0 = s.issue_salp(0, 0, 0, CommandKind::Aap);
        let t1 = s.issue_salp(1, 0, 0, CommandKind::Aap);
        // Different rank: fresh tRRD/tFAW windows, only the bus gap binds.
        assert!((t1 - t0 - t.t_rank_switch).abs() < 1e-9);
    }

    #[test]
    fn rank_interleaving_matches_ranked_closed_form() {
        let t = TimingParams::ddr5_4400();
        for &(banks, ranks) in &[(1usize, 2usize), (4, 2), (16, 2), (16, 4), (8, 4)] {
            let mut s = ChannelScheduler::with_subarrays(t, banks, ranks, 1);
            let n = 600;
            let mut first = 0.0;
            let mut last = 0.0;
            for i in 0..n {
                let rank = i % ranks;
                let bank = (i / ranks) % banks;
                let ti = s.issue_salp(rank, bank, 0, CommandKind::Aap);
                if i == 0 {
                    first = ti;
                }
                last = ti;
            }
            let measured = (last - first) / (n - 1) as f64;
            let analytic = steady_state_aap_interval(&t, banks, ranks, 1);
            assert!(
                (measured - analytic).abs() / analytic < 0.02,
                "banks={banks} ranks={ranks}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn more_ranks_never_slower() {
        let t = TimingParams::ddr5_4400();
        for &banks in &[1usize, 4, 16] {
            let mut prev = f64::INFINITY;
            for &ranks in &[1usize, 2, 4, 8] {
                let interval = steady_state_aap_interval(&t, banks, ranks, 1);
                assert!(
                    interval <= prev + 1e-12,
                    "banks={banks} ranks={ranks}: {interval} > {prev}"
                );
                prev = interval;
            }
        }
    }

    // ---- subarray-level parallelism (SALP) ----

    #[test]
    fn salp_streams_overlap_within_one_bank() {
        let t = TimingParams::ddr5_4400();
        let mut s = ChannelScheduler::with_subarrays(t, 1, 1, 2);
        let t0 = s.issue_salp(0, 0, 0, CommandKind::Aap);
        // Same bank, different subarray: only the shared slot binds,
        // not the bank's tAAP occupancy.
        let t1 = s.issue_salp(0, 0, 1, CommandKind::Aap);
        assert!((t1 - t0 - t.t_subarray_gate).abs() < 1e-9);
        // Same stream again: full occupancy.
        let t2 = s.issue_salp(0, 0, 0, CommandKind::Aap);
        assert!((t2 - t0 - (t.t_aap() + t.t_rrd)).abs() < 1e-9);
    }

    #[test]
    fn salp_interleaving_matches_salp_closed_form() {
        let t = TimingParams::ddr5_4400();
        for &(banks, subs) in &[(1usize, 2usize), (4, 4), (16, 4), (16, 16), (8, 8)] {
            let mut s = ChannelScheduler::with_subarrays(t, banks, 1, subs);
            let n = 800;
            let mut first = 0.0;
            let mut last = 0.0;
            for i in 0..n {
                let sub = i % subs;
                let bank = (i / subs) % banks;
                let ti = s.issue_salp(0, bank, sub, CommandKind::Aap);
                if i == 0 {
                    first = ti;
                }
                last = ti;
            }
            let measured = (last - first) / (n - 1) as f64;
            let analytic = steady_state_aap_interval(&t, banks, 1, subs);
            assert!(
                (measured - analytic).abs() / analytic < 0.02,
                "banks={banks} subs={subs}: measured {measured} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn more_subarrays_never_slower() {
        for t in [TimingParams::ddr5_4400(), TimingParams::ddr4_2400()] {
            for &banks in &[1usize, 4, 16] {
                for &ranks in &[1usize, 2] {
                    let mut prev = f64::INFINITY;
                    for &subs in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
                        let iv = steady_state_aap_interval(&t, banks, ranks, subs);
                        assert!(
                            iv <= prev + 1e-12,
                            "banks={banks} ranks={ranks} subs={subs}: {iv} > {prev}"
                        );
                        prev = iv;
                    }
                }
            }
        }
    }

    #[test]
    fn stream_cap_saturates_at_the_serialization_floor() {
        let t = TimingParams::ddr5_4400();
        for &banks in &[1usize, 4, 16] {
            for &ranks in &[1usize, 2, 4] {
                let cap = salp_stream_cap(&t, banks, ranks);
                assert!(cap >= 1);
                // Every granted stream still divides the pre-SALP
                // interval: the capped interval sits above the floor.
                let capped = steady_state_aap_interval(&t, banks, ranks, cap);
                let mut floor = t.t_subarray_gate;
                if ranks > 1 {
                    floor = floor.max(t.t_rank_switch);
                }
                assert!(capped >= floor - 1e-12, "banks={banks} ranks={ranks}");
                // Beyond the cap the floor binds, so doubling the
                // streams cannot beat the capped cadence.
                let beyond = steady_state_aap_interval(&t, banks, ranks, cap * 2);
                assert!(beyond >= floor - 1e-12);
            }
        }
        // DDR5 single rank, 16 banks: the half-tCK slot grants 15
        // streams (3.625 ns cadence / 0.227 ns slot).
        assert_eq!(salp_stream_cap(&t, 16, 1), 15);
        // Multi-rank channels are already at the rank-switch floor.
        assert_eq!(salp_stream_cap(&t, 16, 2), 1);
    }
}

//! Branch prediction models.
//!
//! The paper contrasts two X86 front-ends (its Table 4): the Intel Atom
//! D510's simple two-level adaptive predictor with a 128-entry BTB, and the
//! Xeon E5645's hybrid predictor that combines a two-level predictor with a
//! loop counter, indirect-target prediction, and an 8192-entry BTB — and
//! measures 7.8 % vs 2.8 % misprediction on the big data workloads.
//!
//! [`BranchUnit`] packages a direction predictor, a BTB, and a return
//! address stack; [`BranchUnit::d510`] and [`BranchUnit::e5645`] build the
//! two configurations.

use bdb_trace::BranchKind;
use std::collections::VecDeque;

/// Saturating 2-bit counter helpers.
fn bump(counter: &mut u8, up: bool) {
    if up {
        *counter = (*counter + 1).min(3);
    } else {
        *counter = counter.saturating_sub(1);
    }
}

fn predicts_taken(counter: u8) -> bool {
    counter >= 2
}

/// A two-level adaptive direction predictor with a global history register
/// XOR-folded into the pattern history table index (gshare organization) —
/// the D510-class predictor.
#[derive(Debug, Clone)]
pub struct TwoLevelPredictor {
    history: u64,
    history_bits: u32,
    /// `table_bits - history_bits`: where the history lands in the index.
    history_shift: u32,
    table: Vec<u8>,
}

impl TwoLevelPredictor {
    /// Builds a predictor with `table_bits` PHT index bits and
    /// `history_bits` of global history.
    ///
    /// # Panics
    ///
    /// Panics if `table_bits == 0` or `history_bits > table_bits`.
    pub fn new(table_bits: u32, history_bits: u32) -> Self {
        assert!(table_bits > 0, "PHT must be non-empty");
        assert!(
            history_bits <= table_bits,
            "history cannot exceed index width"
        );
        Self {
            history: 0,
            history_bits,
            history_shift: table_bits - history_bits,
            table: vec![2; 1 << table_bits],
        }
    }

    fn index(&self, pc: u64) -> usize {
        let folded = (pc >> 2) ^ (self.history << self.history_shift);
        (folded as usize) & (self.table.len() - 1)
    }

    /// Predicted direction for the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        predicts_taken(self.table[self.index(pc)])
    }

    /// Trains on the real outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        self.predict_and_update(pc, taken);
    }

    /// [`predict`](Self::predict) then [`update`](Self::update) with the
    /// table index computed once; returns the prediction.
    pub(crate) fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        let i = self.index(pc);
        let counter = &mut self.table[i];
        let predicted = predicts_taken(*counter);
        bump(counter, taken);
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << self.history_bits) - 1);
        predicted
    }
}

/// Loop-exit predictor: learns branches that are taken exactly `N` times
/// and then fall through once (the E5645's "loop counter" in Table 4).
#[derive(Debug, Clone)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    tag: u64,
    trip: u32,
    current: u32,
    confidence: u8,
}

impl LoopPredictor {
    /// Builds a loop predictor with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "loop table size must be a power of two"
        );
        Self {
            entries: vec![LoopEntry::default(); entries],
        }
    }

    fn slot(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.entries.len() - 1)
    }

    /// `Some(direction)` when confident about this branch, `None` otherwise.
    pub fn predict(&self, pc: u64) -> Option<bool> {
        let e = &self.entries[self.slot(pc)];
        if e.tag == pc && e.confidence >= 2 && e.trip > 0 {
            Some(e.current + 1 < e.trip)
        } else {
            None
        }
    }

    /// Trains on the real outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let slot = self.slot(pc);
        let e = &mut self.entries[slot];
        if e.tag != pc {
            *e = LoopEntry {
                tag: pc,
                trip: 0,
                current: 0,
                confidence: 0,
            };
        }
        if taken {
            e.current += 1;
            // A "loop" that runs absurdly long is not loop-shaped; give up.
            if e.current > 1 << 16 {
                e.confidence = 0;
                e.current = 0;
                e.trip = 0;
            }
        } else {
            let observed = e.current + 1; // executions in this round, incl. the exit
            if observed == e.trip {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.trip = observed;
                e.confidence = 0;
            }
            e.current = 0;
        }
    }
}

/// Branch target buffer: direct-mapped `pc -> target` store used for
/// indirect branches.
#[derive(Debug, Clone)]
pub struct Btb {
    tags: Vec<u64>,
    targets: Vec<u64>,
    misses: u64,
    lookups: u64,
}

impl Btb {
    /// Builds a BTB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "BTB size must be a power of two");
        Self {
            tags: vec![u64::MAX; entries],
            targets: vec![0; entries],
            misses: 0,
            lookups: 0,
        }
    }

    fn slot(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.tags.len() - 1)
    }

    /// Looks up the predicted target for `pc`, then installs the real
    /// `target`. Returns `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u64, target: u64) -> bool {
        self.lookups += 1;
        let slot = self.slot(pc);
        let correct = self.tags[slot] == pc && self.targets[slot] == target;
        if !correct {
            self.misses += 1;
        }
        self.tags[slot] = pc;
        self.targets[slot] = target;
        correct
    }

    /// Lookups that returned a wrong or missing target.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }
}

/// Return address stack: a call past `depth` overwrites the oldest entry.
#[derive(Debug, Clone)]
pub struct ReturnStack {
    stack: VecDeque<u64>,
    depth: usize,
}

impl ReturnStack {
    /// Builds a RAS of `depth` entries.
    pub fn new(depth: usize) -> Self {
        Self {
            stack: VecDeque::with_capacity(depth),
            depth,
        }
    }

    /// Records a call whose return will land at `return_pc`.
    pub fn push(&mut self, return_pc: u64) {
        if self.stack.len() == self.depth {
            self.stack.pop_front();
        }
        self.stack.push_back(return_pc);
    }

    /// Pops the predicted return target; `None` when empty (underflow).
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop_back()
    }
}

/// Aggregate prediction statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Dynamic branches observed (all kinds).
    pub branches: u64,
    /// Mispredicted branches (direction or target).
    pub mispredicts: u64,
    /// Conditional branches observed.
    pub conditionals: u64,
    /// Conditional direction mispredicts.
    pub cond_mispredicts: u64,
}

impl BranchStats {
    /// Overall misprediction ratio in `[0, 1]`.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

/// Which direction scheme a [`BranchUnit`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirectionScheme {
    /// Pure two-level adaptive (Atom D510, per Table 4).
    TwoLevel,
    /// Hybrid: chooser between bimodal and two-level, plus a loop counter
    /// (Xeon E5645, per Table 4).
    Hybrid,
}

/// The full branch prediction unit: direction predictor + BTB + RAS.
///
/// # Examples
///
/// ```
/// use bdb_sim::branch::BranchUnit;
/// use bdb_trace::BranchKind;
///
/// let mut unit = BranchUnit::e5645();
/// // A loop taken 7 times then exiting is learned by the loop predictor.
/// for _ in 0..50 {
///     for i in 0..8 {
///         unit.observe(0x400_100, i < 7, 0x400_080, BranchKind::Conditional);
///     }
/// }
/// assert!(unit.stats().mispredict_ratio() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct BranchUnit {
    scheme: DirectionScheme,
    two_level: TwoLevelPredictor,
    bimodal: Vec<u8>,
    chooser: Vec<u8>,
    loop_pred: LoopPredictor,
    btb: Btb,
    ras: ReturnStack,
    mispredict_penalty: u32,
    stats: BranchStats,
}

impl BranchUnit {
    /// Atom-D510-like unit: two-level adaptive predictor with a global
    /// history table, 128-entry BTB, 15-cycle misprediction penalty, and no
    /// indirect/loop support beyond the BTB (paper Table 4).
    pub fn d510() -> Self {
        Self {
            scheme: DirectionScheme::TwoLevel,
            two_level: TwoLevelPredictor::new(10, 6),
            bimodal: vec![2; 1 << 10],
            chooser: vec![2; 1 << 10],
            loop_pred: LoopPredictor::new(1), // unused under TwoLevel
            btb: Btb::new(128),
            ras: ReturnStack::new(8),
            mispredict_penalty: 15,
            stats: BranchStats::default(),
        }
    }

    /// Xeon-E5645-like unit: hybrid predictor (two-level + bimodal with a
    /// chooser) combined with a loop counter, indirect-target prediction via
    /// an 8192-entry BTB, and an 11–13 cycle penalty (paper Table 4).
    pub fn e5645() -> Self {
        Self {
            scheme: DirectionScheme::Hybrid,
            two_level: TwoLevelPredictor::new(14, 12),
            bimodal: vec![2; 1 << 14],
            chooser: vec![2; 1 << 14],
            loop_pred: LoopPredictor::new(512),
            btb: Btb::new(8192),
            ras: ReturnStack::new(16),
            mispredict_penalty: 12,
            stats: BranchStats::default(),
        }
    }

    /// Cycle cost of one misprediction on this unit.
    pub fn mispredict_penalty(&self) -> u32 {
        self.mispredict_penalty
    }

    /// The direction scheme in use.
    pub fn scheme(&self) -> DirectionScheme {
        self.scheme
    }

    /// Observes one dynamic branch; returns `true` if it was mispredicted.
    ///
    /// `fallthrough_pc` for calls is the return address pushed on the RAS;
    /// we approximate it with `pc + 4`.
    pub fn observe(&mut self, pc: u64, taken: bool, target: u64, kind: BranchKind) -> bool {
        self.stats.branches += 1;
        let mispredicted = match kind {
            BranchKind::Conditional => {
                self.stats.conditionals += 1;
                let mut wrong = self.predict_and_train(pc, taken) != taken;
                if wrong {
                    self.stats.cond_mispredicts += 1;
                }
                // On the in-order two-level core a taken branch whose
                // target misses the small BTB costs a full fetch redirect —
                // architecturally a misprediction. The out-of-order core's
                // decoupled front end hides BTB misses (and its 8192
                // entries rarely miss anyway).
                if taken && self.scheme == DirectionScheme::TwoLevel {
                    wrong |= !self.btb.predict_and_update(pc, target);
                }
                wrong
            }
            BranchKind::Direct => {
                if self.scheme == DirectionScheme::TwoLevel {
                    !self.btb.predict_and_update(pc, target)
                } else {
                    false
                }
            }
            BranchKind::Call => {
                self.ras.push(pc + 4);
                false
            }
            BranchKind::Return => match self.ras.pop() {
                Some(predicted) => predicted != target,
                None => true,
            },
            BranchKind::Indirect => !self.btb.predict_and_update(pc, target),
        };
        if mispredicted {
            self.stats.mispredicts += 1;
        }
        mispredicted
    }

    /// Predicts a conditional branch's direction and trains every
    /// predictor on the real outcome in one pass; returns the prediction.
    fn predict_and_train(&mut self, pc: u64, taken: bool) -> bool {
        match self.scheme {
            DirectionScheme::TwoLevel => self.two_level.predict_and_update(pc, taken),
            DirectionScheme::Hybrid => {
                let looped = self.loop_pred.predict(pc);
                let slot = ((pc >> 2) as usize) & (self.bimodal.len() - 1);
                let two_level = self.two_level.predict_and_update(pc, taken);
                let bimodal = predicts_taken(self.bimodal[slot]);
                let chosen = if predicts_taken(self.chooser[slot]) {
                    two_level
                } else {
                    bimodal
                };
                if (two_level == taken) != (bimodal == taken) {
                    bump(&mut self.chooser[slot], two_level == taken);
                }
                bump(&mut self.bimodal[slot], taken);
                self.loop_pred.update(pc, taken);
                looped.unwrap_or(chosen)
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }

    /// BTB statistics (indirect-target lookups).
    pub fn btb(&self) -> &Btb {
        &self.btb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_learns_alternation() {
        let mut p = TwoLevelPredictor::new(12, 8);
        let pc = 0x400_000;
        let mut wrong = 0;
        for i in 0..2000u32 {
            let taken = i % 2 == 0;
            if p.predict(pc) != taken {
                wrong += 1;
            }
            p.update(pc, taken);
        }
        assert!(
            wrong < 50,
            "two-level should learn T/N alternation, wrong={wrong}"
        );
    }

    #[test]
    fn loop_predictor_learns_fixed_trip_count() {
        let mut lp = LoopPredictor::new(64);
        let pc = 0x400_400;
        // Train several rounds of a 10-iteration loop.
        for _ in 0..5 {
            for i in 0..10 {
                lp.update(pc, i < 9);
            }
        }
        // It should now predict the exit (not-taken) on the 10th execution.
        let mut correct_exit = false;
        for i in 0..10 {
            let pred = lp.predict(pc);
            let actual = i < 9;
            if i == 9 {
                correct_exit = pred == Some(false);
            } else {
                assert_eq!(pred, Some(true), "iteration {i}");
            }
            lp.update(pc, actual);
        }
        assert!(correct_exit, "loop exit should be predicted");
    }

    #[test]
    fn e5645_beats_d510_on_long_loops() {
        // A 24-iteration loop defeats 8 bits of global history but not the
        // loop counter — the mechanism behind Table 4.
        let run = |mut unit: BranchUnit| {
            for _ in 0..400 {
                for i in 0..24 {
                    unit.observe(0x400_800, i < 23, 0x400_780, BranchKind::Conditional);
                }
            }
            unit.stats().mispredict_ratio()
        };
        let d510 = run(BranchUnit::d510());
        let e5645 = run(BranchUnit::e5645());
        assert!(e5645 < d510, "e5645 {e5645} should beat d510 {d510}");
        assert!(
            e5645 < 0.01,
            "loop predictor should nearly eliminate mispredicts: {e5645}"
        );
    }

    #[test]
    fn btb_capacity_matters_for_indirect_spread() {
        // 512 distinct indirect branch sites with stable targets: fits the
        // E5645's 8192-entry BTB, thrashes the D510's 128 entries.
        let run = |mut unit: BranchUnit| {
            for _round in 0..20 {
                for site in 0..512u64 {
                    let pc = 0x400_000 + site * 4;
                    let target = 0x900_000 + site * 64;
                    unit.observe(pc, true, target, BranchKind::Indirect);
                }
            }
            unit.stats().mispredict_ratio()
        };
        let d510 = run(BranchUnit::d510());
        let e5645 = run(BranchUnit::e5645());
        assert!(e5645 < 0.10, "e5645 indirect ratio {e5645}");
        assert!(d510 > 0.5, "d510 should thrash: {d510}");
    }

    #[test]
    fn return_stack_predicts_calls() {
        let mut unit = BranchUnit::e5645();
        // call from pc=100 -> return to 104.
        unit.observe(100, true, 0x500_000, BranchKind::Call);
        let wrong = unit.observe(0x500_040, true, 104, BranchKind::Return);
        assert!(!wrong);
        // Underflow: a return with no call is a mispredict.
        let wrong = unit.observe(0x500_080, true, 104, BranchKind::Return);
        assert!(wrong);
    }

    #[test]
    fn random_outcomes_hurt_both_units() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let outcomes: Vec<bool> = (0..4000).map(|_| rng.gen()).collect();
        let run = |mut unit: BranchUnit| {
            for &t in &outcomes {
                unit.observe(0x400_100, t, 0x400_200, BranchKind::Conditional);
            }
            unit.stats().mispredict_ratio()
        };
        assert!(run(BranchUnit::d510()) > 0.35);
        assert!(run(BranchUnit::e5645()) > 0.35);
    }

    #[test]
    fn stats_count_all_kinds() {
        let mut unit = BranchUnit::e5645();
        unit.observe(0, true, 64, BranchKind::Direct);
        unit.observe(4, true, 64, BranchKind::Conditional);
        let s = unit.stats();
        assert_eq!(s.branches, 2);
        assert_eq!(s.conditionals, 1);
    }
}

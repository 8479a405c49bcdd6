//! Adversary strategies.
//!
//! The paper's adversary (Section 2) perfectly coordinates all Sybil IDs,
//! schedules join/departure timing adaptively, and is resource-bounded: it
//! can solve a `κ`-fraction of challenges in any round where all IDs solve
//! challenges, and in the experiments (Section 10.1) it spends at rate `T`.
//!
//! The engine accrues budget at rate `T` and consults the strategy at its
//! requested wakeup times and at purge/periodic decision points.

use crate::cost::Cost;
use crate::time::Time;

/// A read-only snapshot of what the adversary can observe.
///
/// The paper's adversary can read all messages, so it sees the full
/// membership state and the current entrance quote.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DefenseView {
    /// Current time.
    pub now: Time,
    /// Total membership size.
    pub n_members: u64,
    /// The adversary's own Sybil IDs currently in the system.
    pub n_bad: u64,
    /// Current entrance-challenge quote.
    pub quote: Cost,
}

/// What the adversary chooses to do at a wakeup.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdversaryAction {
    /// Spend up to this much on entrance challenges right now.
    pub join_budget: Cost,
    /// Attempt at most this many joins.
    pub max_joins: u64,
    /// Voluntarily depart this many Sybil IDs first.
    pub departs: u64,
}

impl AdversaryAction {
    /// An action that does nothing.
    pub const IDLE: AdversaryAction =
        AdversaryAction { join_budget: Cost::ZERO, max_joins: 0, departs: 0 };
}

/// A Sybil adversary strategy.
pub trait Adversary {
    /// Strategy name for reports.
    fn name(&self) -> String;

    /// When the adversary next wants control. `None` means it only reacts
    /// to purge/periodic decision points.
    fn next_wakeup(&self, now: Time) -> Option<Time>;

    /// Whether this strategy ever reads [`DefenseView::quote`].
    ///
    /// Computing the quote is the most expensive part of assembling a
    /// [`DefenseView`] (a windowed count inside the defense), and the
    /// engine assembles one on every adversary wakeup — the hottest event
    /// class in attack sweeps. Strategies that ignore the quote (most of
    /// them: they spend whatever the budget allows) should return `false`;
    /// the engine then passes [`Cost::ZERO`] in the view's quote field.
    /// Purely an optimization hint — returning `true` is always correct.
    fn needs_quote(&self) -> bool {
        true
    }

    /// Whether this strategy acts the same way for the rest of any instant:
    /// for every view and budget, [`act`](Self::act) returns `{ join_budget:
    /// budget, max_joins: u64::MAX, departs: 0 }` and
    /// [`purge_retention`](Self::purge_retention) returns 0, and neither call
    /// has side effects. A strategy that returns `true` lets the engine hand
    /// a cascade of identical purge cycles to
    /// [`Defense::repeat_purge_cycles`](crate::defense::Defense::repeat_purge_cycles).
    /// Returning `false` is always correct.
    fn stationary_within_instant(&self) -> bool {
        false
    }

    /// Decides what to do at a wakeup, given the current `view` and
    /// available `budget`.
    fn act(&mut self, view: &DefenseView, budget: Cost) -> AdversaryAction;

    /// During a purge, how many Sybil IDs to retain by re-solving 1-hard
    /// challenges. `cap` is the `κ`-fraction limit already computed by the
    /// engine; the engine clamps the returned value to `cap` and to the
    /// Sybil IDs present, and not to `budget`: each retained ID is charged
    /// 1 whatever the budget holds, so a strategy that retains beyond it
    /// (`FractionKeeper`'s funded top-ups, by design) overdraws it.
    fn purge_retention(&mut self, view: &DefenseView, cap: u64, budget: Cost) -> u64;

    /// At a periodic charge costing `cost_per_id` per Sybil ID, how many to
    /// keep paying for (rest are dropped).
    fn periodic_retention(&mut self, view: &DefenseView, cost_per_id: Cost, budget: Cost) -> u64;
}

/// Boxed strategies forward every callback, so registry-constructed
/// adversaries (see [`build_strategy`]) plug into the generic engine.
/// Sweeps that care about the last percent of wakeup dispatch cost should
/// keep using concrete types; the experiment drivers, whose cells are
/// dominated by the simulation itself, take the one virtual call.
impl Adversary for Box<dyn Adversary> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        (**self).next_wakeup(now)
    }

    fn needs_quote(&self) -> bool {
        (**self).needs_quote()
    }

    fn stationary_within_instant(&self) -> bool {
        (**self).stationary_within_instant()
    }

    fn act(&mut self, view: &DefenseView, budget: Cost) -> AdversaryAction {
        (**self).act(view, budget)
    }

    fn purge_retention(&mut self, view: &DefenseView, cap: u64, budget: Cost) -> u64 {
        (**self).purge_retention(view, cap, budget)
    }

    fn periodic_retention(&mut self, view: &DefenseView, cost_per_id: Cost, budget: Cost) -> u64 {
        (**self).periodic_retention(view, cost_per_id, budget)
    }
}

/// The rate-funded strategies' shortest wakeup step: keeps event counts
/// bounded.
const MIN_STEP: f64 = 0.01;
/// Their longest: quotes are re-checked as defense windows decay.
const MAX_STEP: f64 = 0.5;

/// Precomputes the wakeup step `clamp(1/rate, MIN_STEP, MAX_STEP)` shared
/// by the rate-funded strategies, `∞` for an idle (rate-0) adversary.
///
/// The step is consulted once per adversary wakeup — the hottest event
/// class in attack sweeps — so strategies cache this value at construction
/// and [`next_wakeup_at`] reads it without recomputing the clamp.
fn wakeup_step(rate: f64) -> f64 {
    if rate == 0.0 {
        f64::INFINITY
    } else {
        MIN_STEP.max(1.0 / rate).min(MAX_STEP)
    }
}

/// The next wakeup for a cached [`wakeup_step`]: `None` when idle (the
/// infinite step is the single source of truth for "never wakes").
fn next_wakeup_at(step: f64, now: Time) -> Option<Time> {
    if step.is_infinite() {
        None
    } else {
        Some(now + step)
    }
}

/// No adversary: the baseline "no attack" configuration (`T = 0`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullAdversary;

impl Adversary for NullAdversary {
    fn name(&self) -> String {
        "none".into()
    }

    fn needs_quote(&self) -> bool {
        false
    }

    fn next_wakeup(&self, _now: Time) -> Option<Time> {
        None
    }

    fn act(&mut self, _view: &DefenseView, _budget: Cost) -> AdversaryAction {
        AdversaryAction::IDLE
    }

    fn purge_retention(&mut self, _view: &DefenseView, _cap: u64, _budget: Cost) -> u64 {
        0
    }

    fn periodic_retention(&mut self, _view: &DefenseView, _c: Cost, _budget: Cost) -> u64 {
        0
    }
}

/// The paper's Figure-8/10 adversary: spends its entire budget on entrance
/// challenges, joining Sybil IDs as fast as affordable, evenly over time.
/// It abandons Sybil IDs at purges ("we assume that the adversary only
/// solves RB challenges to add IDs to the system", Section 10.1).
#[derive(Clone, Copy, Debug)]
pub struct BudgetJoiner {
    /// Budget accrual rate `T` (used to compute the next affordable instant).
    rate: f64,
    /// Cached [`wakeup_step`] (`∞` when idle).
    step: f64,
}

impl BudgetJoiner {
    /// Creates a joiner for spend rate `rate` (may be 0, which idles).
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be non-negative");
        BudgetJoiner { rate, step: wakeup_step(rate) }
    }
}

impl Adversary for BudgetJoiner {
    fn name(&self) -> String {
        format!("budget-joiner(T={})", self.rate)
    }

    fn needs_quote(&self) -> bool {
        false
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        next_wakeup_at(self.step, now)
    }

    fn stationary_within_instant(&self) -> bool {
        true
    }

    fn act(&mut self, _view: &DefenseView, budget: Cost) -> AdversaryAction {
        AdversaryAction { join_budget: budget, max_joins: u64::MAX, departs: 0 }
    }

    fn purge_retention(&mut self, _view: &DefenseView, _cap: u64, _budget: Cost) -> u64 {
        0
    }

    fn periodic_retention(&mut self, view: &DefenseView, cost_per_id: Cost, budget: Cost) -> u64 {
        // Keep as many Sybil IDs alive as the periodic budget sustains; any
        // leftover next wakeup goes to new joins.
        if cost_per_id.is_zero() {
            view.n_bad
        } else {
            ((budget.value() / cost_per_id.value()) as u64).min(view.n_bad)
        }
    }
}

/// Maintains a target fraction of Sybil members (used for the GoodJEst
/// robustness experiments, Figure 9: "different fractions of bad IDs that
/// persist in the system"), while optionally injecting extra IDs at rate `T`.
#[derive(Clone, Copy, Debug)]
pub struct FractionKeeper {
    target_fraction: f64,
    rate: f64,
    step: f64,
}

impl FractionKeeper {
    /// Keeps Sybil membership at `target_fraction` of the system, topping up
    /// as needed, with additional injection funded at rate `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `target_fraction` is not in `[0, 1)`.
    pub fn new(target_fraction: f64, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&target_fraction), "fraction must be in [0,1)");
        assert!(rate >= 0.0 && rate.is_finite());
        FractionKeeper { target_fraction, rate, step: 1.0 }
    }

    fn target_bad(&self, n_members: u64, n_bad: u64) -> u64 {
        if self.target_fraction <= 0.0 {
            return 0;
        }
        // Solve b / (g + b) = f for the current good population g. Around
        // purges the view can be assembled mid-update and transiently
        // report more Sybil IDs than total members; treat that as zero
        // good IDs rather than underflowing.
        let good = n_members.saturating_sub(n_bad);
        ((self.target_fraction / (1.0 - self.target_fraction)) * good as f64).round() as u64
    }
}

impl Adversary for FractionKeeper {
    fn name(&self) -> String {
        format!("fraction-keeper(f={}, T={})", self.target_fraction, self.rate)
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        Some(now + self.step)
    }

    fn act(&mut self, view: &DefenseView, budget: Cost) -> AdversaryAction {
        let target = self.target_bad(view.n_members, view.n_bad);
        let deficit = target.saturating_sub(view.n_bad);
        // Top-ups to hold the fraction are assumed funded (the experiment
        // *fixes* the persistent fraction); the spend-rate budget additionally
        // injects as many as it affords.
        let top_up_cost = Cost(deficit as f64 * view.quote.value().max(1.0));
        AdversaryAction {
            join_budget: top_up_cost + budget,
            max_joins: deficit.max(if self.rate > 0.0 { u64::MAX } else { 0 }),
            departs: view.n_bad.saturating_sub(target),
        }
    }

    fn purge_retention(&mut self, view: &DefenseView, cap: u64, _budget: Cost) -> u64 {
        self.target_bad(view.n_members, view.n_bad).min(view.n_bad).min(cap)
    }

    fn periodic_retention(&mut self, view: &DefenseView, _c: Cost, _budget: Cost) -> u64 {
        self.target_bad(view.n_members, view.n_bad).min(view.n_bad)
    }
}

/// Saves its budget and releases it in periodic bursts (stress-tests the
/// β-burstiness handling and the entrance-cost escalation).
#[derive(Clone, Copy, Debug)]
pub struct BurstJoiner {
    period: f64,
    rate: f64,
}

impl BurstJoiner {
    /// Bursts all accumulated budget every `period` seconds.
    pub fn new(rate: f64, period: f64) -> Self {
        assert!(period > 0.0 && rate >= 0.0);
        BurstJoiner { period, rate }
    }
}

impl Adversary for BurstJoiner {
    fn name(&self) -> String {
        format!("burst-joiner(T={}, every {}s)", self.rate, self.period)
    }

    fn needs_quote(&self) -> bool {
        false
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        if self.rate == 0.0 {
            None
        } else {
            Some(now + self.period)
        }
    }

    fn stationary_within_instant(&self) -> bool {
        true
    }

    fn act(&mut self, _view: &DefenseView, budget: Cost) -> AdversaryAction {
        AdversaryAction { join_budget: budget, max_joins: u64::MAX, departs: 0 }
    }

    fn purge_retention(&mut self, _view: &DefenseView, _cap: u64, _budget: Cost) -> u64 {
        0
    }

    fn periodic_retention(&mut self, _view: &DefenseView, _c: Cost, _budget: Cost) -> u64 {
        0
    }
}

/// Joins cheaply and immediately departs, churning the join/departure
/// counters to force frequent purges without holding membership.
///
/// This is precisely the behaviour Heuristic 2 (symmetric-difference purge
/// triggering, Section 10.3) is designed to neutralize.
#[derive(Clone, Copy, Debug)]
pub struct ChurnForcer {
    rate: f64,
    step: f64,
}

impl ChurnForcer {
    /// Creates a churn-forcer funded at `rate`.
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        ChurnForcer { rate, step: 0.05 }
    }
}

impl Adversary for ChurnForcer {
    fn name(&self) -> String {
        format!("churn-forcer(T={})", self.rate)
    }

    fn needs_quote(&self) -> bool {
        false
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        if self.rate == 0.0 {
            None
        } else {
            Some(now + self.step)
        }
    }

    fn act(&mut self, view: &DefenseView, budget: Cost) -> AdversaryAction {
        // Depart everything joined so far, then re-join with the full budget:
        // each join+depart pair advances the iteration counter by 2 while the
        // symmetric difference stays flat.
        AdversaryAction { join_budget: budget, max_joins: u64::MAX, departs: view.n_bad }
    }

    fn purge_retention(&mut self, _view: &DefenseView, _cap: u64, _budget: Cost) -> u64 {
        0
    }

    fn periodic_retention(&mut self, _view: &DefenseView, _c: Cost, _budget: Cost) -> u64 {
        0
    }
}

/// Spends on entrance like [`BudgetJoiner`] but also pays to retain the
/// maximum κ-fraction at every purge — the worst case for the Lemma 9
/// invariant (bad fraction < 3κ).
#[derive(Clone, Copy, Debug)]
pub struct PurgeSurvivor {
    rate: f64,
    /// Cached [`wakeup_step`], shared with [`BudgetJoiner`].
    step: f64,
}

impl PurgeSurvivor {
    /// Creates a purge-surviving adversary funded at `rate`.
    pub fn new(rate: f64) -> Self {
        assert!(rate >= 0.0 && rate.is_finite());
        PurgeSurvivor { rate, step: wakeup_step(rate) }
    }
}

impl Adversary for PurgeSurvivor {
    fn name(&self) -> String {
        format!("purge-survivor(T={})", self.rate)
    }

    fn needs_quote(&self) -> bool {
        false
    }

    fn next_wakeup(&self, now: Time) -> Option<Time> {
        next_wakeup_at(self.step, now)
    }

    fn act(&mut self, _view: &DefenseView, budget: Cost) -> AdversaryAction {
        // Reserve nothing: the engine allows purge retention to draw from the
        // same accrued budget at purge time.
        AdversaryAction { join_budget: budget, max_joins: u64::MAX, departs: 0 }
    }

    fn purge_retention(&mut self, view: &DefenseView, cap: u64, budget: Cost) -> u64 {
        cap.min(view.n_bad).min(budget.value() as u64)
    }

    fn periodic_retention(&mut self, view: &DefenseView, cost_per_id: Cost, budget: Cost) -> u64 {
        if cost_per_id.is_zero() {
            view.n_bad
        } else {
            ((budget.value() / cost_per_id.value()) as u64).min(view.n_bad)
        }
    }
}

/// Registry name for [`NullAdversary`].
pub const STRATEGY_NONE: &str = "none";
/// Registry name for [`BudgetJoiner`].
pub const STRATEGY_BUDGET: &str = "budget";
/// Registry name for [`BurstJoiner`].
pub const STRATEGY_BURST: &str = "burst";
/// Registry name for [`ChurnForcer`].
pub const STRATEGY_CHURN_FORCE: &str = "churn-force";
/// Registry name for [`PurgeSurvivor`].
pub const STRATEGY_PURGE_SURVIVE: &str = "purge-survive";
/// Registry name for [`FractionKeeper`].
pub const STRATEGY_FRACTION_KEEP: &str = "fraction-keep";

/// Every name [`build_strategy`] accepts, in canonical roster order.
///
/// These are the labels experiment specs put on a `strategy` axis
/// (`axis strategy = str:budget,burst,churn-force,purge-survive`); the
/// experiment driver resolves each label back through the registry.
pub const STRATEGY_NAMES: [&str; 6] = [
    STRATEGY_NONE,
    STRATEGY_BUDGET,
    STRATEGY_BURST,
    STRATEGY_CHURN_FORCE,
    STRATEGY_PURGE_SURVIVE,
    STRATEGY_FRACTION_KEEP,
];

/// Parameters a registry-constructed strategy may consume.
///
/// One flat parameter struct instead of per-strategy types: an experiment
/// grid sweeps *names* along an axis and holds the parameters fixed per
/// cell, so every constructor must accept the same input. A strategy reads
/// the fields it cares about and ignores the rest.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyParams {
    /// Budget accrual rate `T` (every funded strategy).
    pub rate: f64,
    /// Seconds between bursts (`burst` only).
    pub burst_period: f64,
    /// Persistent Sybil fraction to hold (`fraction-keep` only).
    pub target_fraction: f64,
    /// Seed reserved for stochastic strategies. None of the current
    /// strategies draw randomness, but the registry contract carries it so
    /// a future randomized strategy stays a pure function of
    /// `(name, params)` — drivers derive it per cell and trial.
    pub seed: u64,
}

impl StrategyParams {
    /// Params for spend rate `rate` with the canonical defaults the
    /// invariant experiments use: 60 s burst period (the E6 saver cadence),
    /// no persistent fraction, seed 0.
    pub fn rate(rate: f64) -> StrategyParams {
        StrategyParams { rate, burst_period: 60.0, target_fraction: 0.0, seed: 0 }
    }

    /// Sets the burst period.
    pub fn with_burst_period(mut self, period: f64) -> StrategyParams {
        self.burst_period = period;
        self
    }

    /// Sets the persistent target fraction.
    pub fn with_target_fraction(mut self, fraction: f64) -> StrategyParams {
        self.target_fraction = fraction;
        self
    }

    /// Sets the strategy seed.
    pub fn with_seed(mut self, seed: u64) -> StrategyParams {
        self.seed = seed;
        self
    }
}

/// Constructs the strategy registered under `name`, boxed for the generic
/// engine (which accepts `Box<dyn Adversary>` directly).
///
/// This is the resolution step behind a spec's `strategy` axis: the axis
/// carries registry names as plain labels, and the experiment driver calls
/// this per cell with the cell's parameters. Unknown names report the full
/// roster so a typo in a spec fails loudly and actionably.
///
/// # Errors
///
/// Returns an error for a name outside [`STRATEGY_NAMES`], or parameters
/// the strategy's constructor rejects (negative rate, fraction outside
/// `[0, 1)`, non-positive burst period).
pub fn build_strategy(name: &str, params: &StrategyParams) -> Result<Box<dyn Adversary>, String> {
    let check = |ok: bool, why: &str| -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("strategy {name:?}: {why} (params: {params:?})"))
        }
    };
    check(params.rate >= 0.0 && params.rate.is_finite(), "rate must be finite and non-negative")?;
    Ok(match name {
        STRATEGY_NONE => Box::new(NullAdversary),
        STRATEGY_BUDGET => Box::new(BudgetJoiner::new(params.rate)),
        STRATEGY_BURST => {
            check(
                params.burst_period > 0.0 && params.burst_period.is_finite(),
                "burst period must be positive and finite",
            )?;
            Box::new(BurstJoiner::new(params.rate, params.burst_period))
        }
        STRATEGY_CHURN_FORCE => Box::new(ChurnForcer::new(params.rate)),
        STRATEGY_PURGE_SURVIVE => Box::new(PurgeSurvivor::new(params.rate)),
        STRATEGY_FRACTION_KEEP => {
            check(
                (0.0..1.0).contains(&params.target_fraction),
                "target fraction must be in [0, 1)",
            )?;
            Box::new(FractionKeeper::new(params.target_fraction, params.rate))
        }
        other => {
            return Err(format!(
                "unknown adversary strategy {other:?} (registered: {})",
                STRATEGY_NAMES.join(", ")
            ))
        }
    })
}

/// Canonical fingerprint of a `(name, params)` pair, for folding into an
/// experiment store's configuration context.
///
/// Injective: registry names contain no `(`, and the parameter suffix has
/// a fixed shape with floats rendered as bit patterns, so two distinct
/// `(name, params)` pairs can never fingerprint identically — a store
/// keyed on this can never silently resume cells produced under different
/// adversary parameters.
pub fn strategy_fingerprint(name: &str, params: &StrategyParams) -> String {
    format!(
        "{name}(rate=0x{:016x}, burst_period=0x{:016x}, target_fraction=0x{:016x}, seed={})",
        params.rate.to_bits(),
        params.burst_period.to_bits(),
        params.target_fraction.to_bits(),
        params.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(n_members: u64, n_bad: u64) -> DefenseView {
        DefenseView { now: Time(10.0), n_members, n_bad, quote: Cost(1.0) }
    }

    #[test]
    fn null_adversary_is_idle() {
        let mut a = NullAdversary;
        assert_eq!(a.next_wakeup(Time(0.0)), None);
        assert_eq!(a.act(&view(10, 0), Cost(100.0)), AdversaryAction::IDLE);
        assert_eq!(a.purge_retention(&view(10, 5), 3, Cost(100.0)), 0);
    }

    #[test]
    fn budget_joiner_spends_everything() {
        let mut a = BudgetJoiner::new(100.0);
        let act = a.act(&view(10, 0), Cost(42.0));
        assert_eq!(act.join_budget, Cost(42.0));
        assert_eq!(act.departs, 0);
        assert_eq!(a.purge_retention(&view(10, 5), 3, Cost(42.0)), 0);
        assert!(a.next_wakeup(Time(0.0)).unwrap() > Time(0.0));
        assert_eq!(BudgetJoiner::new(0.0).next_wakeup(Time(0.0)), None);
    }

    #[test]
    fn fraction_keeper_targets_fraction() {
        let a = FractionKeeper::new(0.2, 0.0);
        // 80 good, target f = 0.2 -> bad = 20.
        assert_eq!(a.target_bad(80, 0), 20);
        assert_eq!(a.target_bad(100, 20), 20);
        let mut a = FractionKeeper::new(0.2, 0.0);
        let act = a.act(&view(100, 20), Cost::ZERO);
        assert_eq!(act.departs, 0);
        // Over target: departs the excess.
        let act = a.act(&view(100, 50), Cost::ZERO);
        assert_eq!(act.departs, 50 - a.target_bad(100, 50));
    }

    #[test]
    fn purge_survivor_retains_up_to_cap_and_budget() {
        let mut a = PurgeSurvivor::new(10.0);
        assert_eq!(a.purge_retention(&view(100, 50), 20, Cost(100.0)), 20);
        assert_eq!(a.purge_retention(&view(100, 50), 20, Cost(5.0)), 5);
        assert_eq!(a.purge_retention(&view(100, 3), 20, Cost(100.0)), 3);
    }

    #[test]
    fn churn_forcer_departs_all_then_rejoins() {
        let mut a = ChurnForcer::new(5.0);
        let act = a.act(&view(100, 7), Cost(9.0));
        assert_eq!(act.departs, 7);
        assert_eq!(act.join_budget, Cost(9.0));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn fraction_keeper_rejects_bad_fraction() {
        let _ = FractionKeeper::new(1.0, 0.0);
    }

    /// Regression: `n_members - n_bad` underflowed (debug-build panic,
    /// release-build garbage target) when a mid-purge view transiently
    /// reported more Sybil IDs than members, and was computed even on the
    /// `target_fraction <= 0` early-return path.
    #[test]
    fn fraction_keeper_survives_bad_exceeding_members() {
        let a = FractionKeeper::new(0.2, 0.0);
        // More bad than members: zero good IDs, so the target is zero.
        assert_eq!(a.target_bad(5, 9), 0);
        let mut a = FractionKeeper::new(0.2, 0.0);
        let act = a.act(&view(5, 9), Cost::ZERO);
        assert_eq!(act.departs, 9, "all Sybil IDs are over target");
        assert_eq!(a.purge_retention(&view(5, 9), 3, Cost::ZERO), 0);
        // The zero-fraction early return must not touch the subtraction.
        let zero = FractionKeeper::new(0.0, 0.0);
        assert_eq!(zero.target_bad(5, 9), 0);
    }

    #[test]
    fn purge_survivor_step_is_cached_and_matches_budget_joiner() {
        // The cached step must equal the formula the old per-wakeup
        // recomputation used: clamp(1/rate, 0.01, 0.5).
        for rate in [0.5f64, 10.0, 1_000.0, 1e6] {
            let expected = (1.0 / rate).clamp(0.01, 0.5);
            let now = Time(3.0);
            let s = PurgeSurvivor::new(rate).next_wakeup(now).unwrap();
            assert_eq!(s.0.to_bits(), (now.0 + expected).to_bits(), "rate {rate}");
            let b = BudgetJoiner::new(rate).next_wakeup(now).unwrap();
            assert_eq!(s.0.to_bits(), b.0.to_bits(), "rate {rate}: shared step diverged");
        }
        assert_eq!(PurgeSurvivor::new(0.0).next_wakeup(Time(0.0)), None);
    }

    #[test]
    fn registry_roundtrip_constructs_every_strategy() {
        let params = StrategyParams::rate(100.0).with_target_fraction(0.1);
        for name in STRATEGY_NAMES {
            let adv = build_strategy(name, &params)
                .unwrap_or_else(|e| panic!("registered strategy {name:?} failed to build: {e}"));
            assert!(!adv.name().is_empty());
            // The boxed forwarding impl must reach the concrete strategy.
            let mut adv = adv;
            let _ = adv.act(&view(100, 5), Cost(10.0));
            let _ = adv.next_wakeup(Time(1.0));
            let _ = adv.needs_quote();
            let _ = adv.purge_retention(&view(100, 5), 3, Cost(10.0));
            let _ = adv.periodic_retention(&view(100, 5), Cost(1.0), Cost(10.0));
        }
        let unknown = build_strategy("no-such-strategy", &params).err().unwrap();
        assert!(unknown.contains("purge-survive"), "{unknown}");
        // Parameter domain errors are reported per strategy.
        assert!(build_strategy(STRATEGY_BUDGET, &StrategyParams::rate(-1.0)).is_err());
        assert!(build_strategy(STRATEGY_BURST, &StrategyParams::rate(1.0).with_burst_period(0.0))
            .is_err());
        assert!(build_strategy(
            STRATEGY_FRACTION_KEEP,
            &StrategyParams::rate(1.0).with_target_fraction(1.0)
        )
        .is_err());
    }

    /// Which registry strategies opt in to closed-form purge cycles, through
    /// the boxes the registry builds, and that each one keeps the contract:
    /// the whole budget, no limit, no departure, no retention, on every view.
    #[test]
    fn budget_and_burst_are_the_strategies_stationary_within_an_instant() {
        let params = StrategyParams::rate(100.0).with_target_fraction(0.1);
        let stationary: Vec<&str> = STRATEGY_NAMES
            .into_iter()
            .filter(|name| build_strategy(name, &params).unwrap().stationary_within_instant())
            .collect();
        assert_eq!(stationary, [STRATEGY_BUDGET, STRATEGY_BURST]);
        let views = [view(100, 0), view(100, 17), view(0, 0), view(5, 9)];
        let budgets = [Cost::ZERO, Cost(0.5), Cost(42.0), Cost(1e15)];
        for name in stationary {
            let mut adv = build_strategy(name, &params).unwrap();
            for (v, b) in views.iter().flat_map(|v| budgets.iter().map(move |b| (v, *b))) {
                let want = AdversaryAction { join_budget: b, max_joins: u64::MAX, departs: 0 };
                for _ in 0..2 {
                    assert_eq!(adv.act(v, b), want, "{name} {v:?} {b:?}");
                    assert_eq!(adv.purge_retention(v, v.n_bad, b), 0, "{name} {v:?} {b:?}");
                }
            }
        }
    }

    #[test]
    fn strategy_fingerprints_are_injective() {
        let mut seen = std::collections::BTreeMap::new();
        let params = [
            StrategyParams::rate(0.0),
            StrategyParams::rate(100.0),
            StrategyParams::rate(100.0).with_burst_period(30.0),
            StrategyParams::rate(100.0).with_target_fraction(0.25),
            StrategyParams::rate(100.0).with_seed(7),
            // -0.0 vs 0.0 rate: bit patterns differ, fingerprints must too.
            StrategyParams::rate(-0.0),
        ];
        for name in STRATEGY_NAMES {
            for p in &params {
                let fp = strategy_fingerprint(name, p);
                if let Some(prev) = seen.insert(fp.clone(), (name, *p)) {
                    panic!("{prev:?} and {:?} share fingerprint {fp}", (name, p));
                }
            }
        }
        assert_eq!(seen.len(), STRATEGY_NAMES.len() * params.len());
    }

    #[test]
    fn boxed_adversary_forwards_like_the_concrete_type() {
        let rate = 500.0;
        let mut concrete = BudgetJoiner::new(rate);
        let mut boxed: Box<dyn Adversary> = Box::new(BudgetJoiner::new(rate));
        assert_eq!(boxed.name(), concrete.name());
        assert_eq!(boxed.needs_quote(), concrete.needs_quote());
        assert_eq!(boxed.next_wakeup(Time(2.0)), concrete.next_wakeup(Time(2.0)));
        let v = view(50, 10);
        assert_eq!(boxed.act(&v, Cost(9.0)), concrete.act(&v, Cost(9.0)));
        assert_eq!(
            boxed.periodic_retention(&v, Cost(1.0), Cost(4.0)),
            concrete.periodic_retention(&v, Cost(1.0), Cost(4.0))
        );
    }
}

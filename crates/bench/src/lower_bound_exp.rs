//! Experiment E4 — the Theorem 3 lower bound (paper Section 11): every
//! B1–B3 algorithm, across entrance cost functions, spends at rate
//! `Ω(√(T·J) + J)` against the uniform-join / abandon-at-purge adversary.
//!
//! The bound simulation is closed-form and seedless (no workload, no RNG),
//! so cells are single deterministic runs — multi-trial confidence
//! intervals would be zero-width by construction. The grid is a
//! first-class two-axis [`ExperimentSpec`] (`cost × T`) run through the
//! [`TrialGrid`] driver for its resumable results store and instrumented
//! pool; cost-function labels (which contain spaces) are ordinary axis
//! values under the canonical escaped cell ids.

use crate::experiment::{Column, Experiment, Part, TableSpec};
use crate::grid::TrialGrid;
use sybil_defenses::lower_bound::{run_lower_bound, CostFunction};
use sybil_exp::spec::{Axis, AXIS_T};
use sybil_exp::{ExperimentSpec, GridOptions};

/// The Theorem 3 experiment, declared.
pub const EXPERIMENT: Experiment = Experiment {
    name: "lower_bound",
    banner: "=== Theorem 3 lower bound: spend rate vs sqrt(TJ)+J ===\n\
             (J = 2 IDs/s, n0 = 10 000, delta = 1/11)",
    parts,
};

/// The non-canonical axis of this grid: the entrance cost function.
pub const AXIS_COST: &str = "cost";

/// The cost-function family swept by the experiment.
pub fn cost_functions() -> Vec<CostFunction> {
    vec![
        CostFunction::Constant(1.0),
        CostFunction::RatioTotalGood,
        CostFunction::SqrtRatio,
        CostFunction::ScaledBad(0.1),
    ]
}

/// The bound parameters the axes do not carry: `(J, n0, δ)`.
const BOUND_PARAMS: (f64, u64, f64) = (2.0, 10_000, 1.0 / 11.0);

/// The lower-bound grid, declared: `cost × T`.
///
/// Deterministic closed-form cells: trials/seed are degenerate (one
/// trial, seedless, no networks), but the axes are first-class, so the
/// store keys are canonical and collision-free by construction.
fn grid(fast: bool) -> TrialGrid {
    let t_values: Vec<f64> =
        if fast { vec![1e2, 1e4] } else { vec![0.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7] };
    let (j, n0, delta) = BOUND_PARAMS;
    let spec = ExperimentSpec {
        name: "lower_bound".into(),
        axes: vec![
            Axis::strs(AXIS_COST, cost_functions().iter().map(|f| f.label())),
            Axis::floats(AXIS_T, t_values),
        ],
        trials: 1,
        horizon: if fast { 1_000.0 } else { 10_000.0 },
        kappa: 0.0,
        seed: 0,
    };
    // What the cost labels resolve to, plus the bound parameters the axes
    // do not carry.
    let context =
        format!("j = {j}\nn0 = {n0}\ndelta = {delta}\ncost_functions = {:?}\n", cost_functions());
    TrialGrid::from_spec(spec, context, &[])
}

fn parts(fast: bool) -> Vec<Part> {
    let (j, n0, delta) = BOUND_PARAMS;
    let costs = cost_functions();
    let columns = vec![
        Column::axis("cost function", AXIS_COST),
        Column::axis("T", AXIS_T),
        Column::field("J", "j"),
        Column::field("J_B (fixed point)", "j_bad"),
        Column::field("spend rate", "spend_rate"),
        Column::field("sqrt(TJ)+J", "bound"),
        Column::field("spend/bound", "ratio"),
    ];
    vec![Part {
        grid: grid(fast),
        opts: GridOptions::default(),
        measure: Box::new(move |cell, trials| {
            let label = cell.str_value(AXIS_COST);
            let f = *costs.iter().find(|f| f.label() == label).expect("cell names a cost function");
            let o = run_lower_bound(f, cell.f64_value(AXIS_T), j, n0, delta, trials[0].horizon);
            vec![
                ("j".into(), o.j),
                ("j_bad".into(), o.j_bad),
                ("spend_rate".into(), o.spend_rate),
                ("bound".into(), o.bound),
                ("ratio".into(), o.ratio),
            ]
        }),
        violated: None,
        tables: vec![TableSpec::per_cell("lower_bound", columns)],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_respected_across_family() {
        for f in cost_functions() {
            let out = run_lower_bound(f, 1e5, 2.0, 10_000, 1.0 / 11.0, 2_000.0);
            assert!(out.ratio > 0.5, "{}: ratio {}", out.label, out.ratio);
        }
    }

    #[test]
    fn cell_ids_are_store_safe_and_unique() {
        use sybil_exp::spec::{AxisValue, CellSpec};
        let mut ids = std::collections::BTreeSet::new();
        for f in cost_functions() {
            // The same derivation run() uses: canonical escaped axis ids.
            let id = CellSpec::new(vec![
                (AXIS_COST.into(), AxisValue::Str(f.label())),
                (AXIS_T.into(), AxisValue::F64(100.0)),
            ])
            .id();
            assert!(!id.chars().any(char::is_whitespace), "{id}");
            assert!(ids.insert(id));
        }
    }
}

//! **Fig. 7** — Threat Models II/III: the LAP/LAR smoothing filters
//! neutralize the classical attacks (the target class no longer wins
//! once the adversarial image passes through the filter), at the cost
//! of a confidence/accuracy reduction. Top-5 accuracy vs filter
//! strength is hump-shaped: mild smoothing removes sensor noise and
//! helps, heavy smoothing destroys class features and hurts.

use fademl_filters::FilterSpec;

use super::grid::{
    accuracy_table, collect_stages, filtered_success_rate, require_filtered, verdict_table,
    AccuracyGrid, ScenarioCell, Sweep,
};
use super::AttackParams;
use crate::report::Table;
use crate::setup::PreparedSetup;
use crate::{Result, Scenario, ThreatModel};

/// Result of the Fig. 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Demonstration cells: (scenario, attack, filter) sign panels.
    pub cells: Vec<ScenarioCell>,
    /// Accuracy-vs-filter grids, one per scenario.
    pub grids: Vec<AccuracyGrid>,
    /// Which threat model the filtered evaluation used.
    pub threat: ThreatModel,
}

impl Fig7Result {
    /// Fraction of filtered cells where the targeted misclassification
    /// *survived* the filter (the paper's expectation: near zero for the
    /// classical attacks).
    pub fn filtered_success_rate(&self) -> f32 {
        filtered_success_rate(&self.cells)
    }

    /// Renders one per-scenario demonstration table: rows = attacks,
    /// columns = filters, cells = the class the pipeline reports.
    pub fn scenario_table(&self, scenario_id: usize, filters: &[FilterSpec]) -> Table {
        let title = format!(
            "Fig. 7 — scenario {scenario_id}: pipeline verdict through each filter ({})",
            self.threat
        );
        let rows = AttackParams::labels().map(|label| (label, label.to_owned()));
        verdict_table(title, "Attack", rows, &self.cells, scenario_id, filters)
    }

    /// Renders the accuracy grid for one scenario: rows = attack
    /// condition, columns = filters.
    pub fn accuracy_table(&self, scenario_id: usize, filters: &[FilterSpec]) -> Table {
        let title = format!("Fig. 7 — scenario {scenario_id}: top-5 accuracy vs filter");
        accuracy_table(title, &self.grids, scenario_id, filters)
    }
}

/// Runs the Fig. 7 experiment: classical attacks crafted on the bare
/// DNN, evaluated through every filter of `filters` under `threat`
/// (II or III), with accuracy grids over `eval_n` test images.
///
/// # Errors
///
/// Propagates attack and pipeline errors; returns an error if `threat`
/// is Threat Model I.
pub fn run(
    prepared: &PreparedSetup,
    params: &AttackParams,
    filters: &[FilterSpec],
    eval_n: usize,
    threat: ThreatModel,
) -> Result<Fig7Result> {
    require_filtered("Fig. 7", threat)?;
    let sweep = Sweep::over(prepared, params, filters, false, eval_n, threat)?;
    let stages = sweep.run(&Scenario::paper_scenarios())?;
    let (cells, grids) = collect_stages(stages);
    Ok(Fig7Result {
        cells,
        grids,
        threat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{ExperimentSetup, SetupProfile};
    use std::sync::OnceLock;

    fn prepared() -> &'static PreparedSetup {
        static CELL: OnceLock<PreparedSetup> = OnceLock::new();
        CELL.get_or_init(|| {
            ExperimentSetup::profile(SetupProfile::Smoke)
                .prepare()
                .unwrap()
        })
    }

    fn cheap_params() -> AttackParams {
        AttackParams {
            epsilon: 0.12,
            bim_iterations: 4,
            lbfgs_iterations: 5,
            ..AttackParams::default()
        }
    }

    fn small_filters() -> Vec<FilterSpec> {
        vec![
            FilterSpec::None,
            FilterSpec::Lap { np: 8 },
            FilterSpec::Lar { r: 2 },
        ]
    }

    #[test]
    fn rejects_threat_model_one() {
        assert!(run(
            prepared(),
            &cheap_params(),
            &small_filters(),
            4,
            ThreatModel::I
        )
        .is_err());
    }

    #[test]
    fn covers_every_cell_and_grid() {
        let filters = small_filters();
        let result = run(prepared(), &cheap_params(), &filters, 4, ThreatModel::III).unwrap();
        // 5 scenarios × 3 attacks × 3 filters.
        assert_eq!(result.cells.len(), 45);
        assert_eq!(result.grids.len(), 5);
        for grid in &result.grids {
            assert_eq!(grid.cells.len(), 4 * filters.len());
        }
    }

    #[test]
    fn filters_reduce_attack_success() {
        // The filtered success rate must be strictly below the unfiltered
        // TM-I success rate of the same cells.
        let filters = small_filters();
        let result = run(prepared(), &cheap_params(), &filters, 4, ThreatModel::III).unwrap();
        let tm1_successes = result
            .cells
            .iter()
            .filter(|c| c.filter != FilterSpec::None && c.success_tm1)
            .count();
        let tm23_successes = result
            .cells
            .iter()
            .filter(|c| c.filter != FilterSpec::None && c.success_tm23)
            .count();
        assert!(
            tm23_successes <= tm1_successes,
            "filtering should not help the attacker: {tm23_successes} > {tm1_successes}"
        );
    }

    #[test]
    fn tables_render() {
        let filters = small_filters();
        let result = run(prepared(), &cheap_params(), &filters, 4, ThreatModel::III).unwrap();
        let demo = result.scenario_table(1, &filters);
        assert_eq!(demo.len(), 3);
        assert!(demo.render().contains("LAP(8)"));
        let acc = result.accuracy_table(1, &filters);
        assert_eq!(acc.len(), 4);
        assert!(acc.render().contains("No attack"));
    }
}

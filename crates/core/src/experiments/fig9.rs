//! **Fig. 9** — the FAdeML filter-aware attacks are *not* neutralized
//! by the LAP/LAR filters: because the noise is optimized through
//! `filter ∘ DNN`, the targeted misclassification survives filtering,
//! at a slightly reduced attack confidence and with a larger impact on
//! overall top-5 accuracy than the filtered classical attacks.

use fademl_filters::FilterSpec;

use super::grid::{
    accuracy_table, collect_stages, filtered_success_rate, require_filtered, verdict_table,
    AccuracyGrid, ScenarioCell, Sweep,
};
use super::AttackParams;
use crate::report::Table;
use crate::setup::PreparedSetup;
use crate::{Result, Scenario, ThreatModel};

/// Result of the Fig. 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Demonstration cells: (scenario, FAdeML-attack, filter) panels.
    pub cells: Vec<ScenarioCell>,
    /// Accuracy-vs-filter grids, one per scenario (attacks re-crafted
    /// per filter because FAdeML noise depends on the filter).
    pub grids: Vec<AccuracyGrid>,
    /// Which threat model the filtered evaluation used.
    pub threat: ThreatModel,
}

impl Fig9Result {
    /// Fraction of filtered cells where the targeted misclassification
    /// survived the filter — the paper's headline: high for FAdeML where
    /// Fig. 7's classical attacks are near zero.
    pub fn filtered_success_rate(&self) -> f32 {
        filtered_success_rate(&self.cells)
    }

    /// Renders one per-scenario demonstration table (FAdeML verdicts
    /// through each filter).
    pub fn scenario_table(&self, scenario_id: usize, filters: &[FilterSpec]) -> Table {
        let title = format!(
            "Fig. 9 — scenario {scenario_id}: FAdeML verdict through each filter ({})",
            self.threat
        );
        let rows = AttackParams::labels().map(|label| (label, format!("FAdeML[{label}]")));
        verdict_table(
            title,
            "FAdeML attack",
            rows,
            &self.cells,
            scenario_id,
            filters,
        )
    }

    /// Renders the accuracy grid for one scenario.
    pub fn accuracy_table(&self, scenario_id: usize, filters: &[FilterSpec]) -> Table {
        let title = format!("Fig. 9 — scenario {scenario_id}: top-5 accuracy vs filter (FAdeML)");
        accuracy_table(title, &self.grids, scenario_id, filters)
    }
}

/// Runs the Fig. 9 experiment: the same grid as Fig. 7 but with every
/// attack wrapped in the FAdeML filter-aware loop, crafted against the
/// deployed filter.
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
) -> Result<Fig9Result> {
    require_filtered("Fig. 9", threat)?;
    let sweep = Sweep::over(prepared, params, filters, true, eval_n, threat)?;
    let stages = sweep.run(&Scenario::paper_scenarios())?;
    let (cells, grids) = collect_stages(stages);
    Ok(Fig9Result {
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
            epsilon: 0.15,
            bim_iterations: 4,
            lbfgs_iterations: 5,
            fademl_rounds: 2,
            ..AttackParams::default()
        }
    }

    fn small_filters() -> Vec<FilterSpec> {
        vec![FilterSpec::Lap { np: 8 }, FilterSpec::Lar { r: 1 }]
    }

    #[test]
    fn rejects_threat_model_one() {
        assert!(run(
            prepared(),
            &cheap_params(),
            &small_filters(),
            3,
            ThreatModel::I
        )
        .is_err());
    }

    #[test]
    fn covers_cells_and_grids() {
        let filters = small_filters();
        let result = run(prepared(), &cheap_params(), &filters, 3, ThreatModel::III).unwrap();
        assert_eq!(result.cells.len(), 5 * 3 * filters.len());
        assert_eq!(result.grids.len(), 5);
    }

    #[test]
    fn fademl_survives_filters_better_than_blind_attacks() {
        // Head-to-head on the same victim, filters and parameters: the
        // filter-aware attacks must keep a higher (or equal) filtered
        // success rate than the blind classical attacks of Fig. 7.
        use super::super::fig7;
        let filters = small_filters();
        let params = cheap_params();
        let blind = fig7::run(prepared(), &params, &filters, 3, ThreatModel::III).unwrap();
        let aware = run(prepared(), &params, &filters, 3, ThreatModel::III).unwrap();
        assert!(
            aware.filtered_success_rate() >= blind.filtered_success_rate(),
            "FAdeML {:.0}% vs blind {:.0}%",
            aware.filtered_success_rate() * 100.0,
            blind.filtered_success_rate() * 100.0
        );
    }

    #[test]
    fn tables_render() {
        let filters = small_filters();
        let result = run(prepared(), &cheap_params(), &filters, 3, ThreatModel::III).unwrap();
        let demo = result.scenario_table(2, &filters);
        assert!(demo.render().contains("FAdeML[FGSM]"));
        let acc = result.accuracy_table(2, &filters);
        assert_eq!(acc.len(), 4);
    }
}

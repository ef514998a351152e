//! Shared evaluation machinery for the figure experiments: the one
//! per-scenario stage behind every grid figure (craft each distinct
//! adversarial example once, read its demonstration cell and its
//! accuracy bar off it) and the scheduler that runs the stages.

use std::sync::atomic::{AtomicUsize, Ordering};

use fademl_attacks::{AdversarialExample, Attack, AttackGoal, AttackSurface, Fademl};
use fademl_data::{ClassId, SignDataset};
use fademl_filters::FilterSpec;
use fademl_tensor::Tensor;

use super::AttackParams;
use crate::cost::top5_cost;
use crate::report::{pct, Table};
use crate::setup::PreparedSetup;
use crate::{FademlError, InferencePipeline, Result, Scenario, ThreatModel};

/// One (scenario, attack, filter) demonstration cell — the per-sign
/// panels of Figs. 5, 7 and 9.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCell {
    /// Scenario number (1-5).
    pub scenario_id: usize,
    /// Attack label (`"L-BFGS"`, `"FGSM"`, `"BIM"`).
    pub attack: String,
    /// Deployed filter.
    pub filter: FilterSpec,
    /// Winning class when the adversarial image bypasses the filter.
    pub tm1_class: usize,
    /// Its confidence.
    pub tm1_confidence: f32,
    /// Winning class when the image passes through the filter.
    pub tm23_class: usize,
    /// Its confidence.
    pub tm23_confidence: f32,
    /// Eq. 2 cost between the two views.
    pub cost: f32,
    /// Targeted misclassification achieved under TM-I.
    pub success_tm1: bool,
    /// Targeted misclassification achieved under TM-II/III.
    pub success_tm23: bool,
    /// L∞ magnitude of the crafted noise.
    pub noise_linf: f32,
}

/// One point of an accuracy-vs-filter series (the bar charts of
/// Figs. 6, 7 and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyCell {
    /// Deployed filter.
    pub filter: FilterSpec,
    /// Attack label, or `"No attack"`.
    pub attack: String,
    /// Top-5 accuracy over the evaluation subset.
    pub top5_accuracy: f32,
}

/// A full accuracy grid for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyGrid {
    /// The scenario whose target class drives the perturbations.
    pub scenario: Scenario,
    /// All (filter, attack) accuracy cells.
    pub cells: Vec<AccuracyCell>,
}

impl AccuracyGrid {
    /// Looks up one cell's accuracy.
    pub fn accuracy(&self, filter: FilterSpec, attack: &str) -> Option<f32> {
        self.cells
            .iter()
            .find(|c| c.filter == filter && c.attack == attack)
            .map(|c| c.top5_accuracy)
    }
}

/// Crafts one adversarial example on `source`, through the public
/// [`Attack::run`] API.
///
/// For classical (Threat-Model-I) crafting (`aware == None`) the
/// surface is the bare DNN; for FAdeML crafting it is `filter ∘ DNN`
/// and the attack is wrapped in the [`Fademl`] refinement loop.
pub(crate) fn craft(
    prepared: &PreparedSetup,
    params: &AttackParams,
    attack_idx: usize,
    aware: Option<FilterSpec>,
    source: &Tensor,
    goal: AttackGoal,
) -> Result<AdversarialExample> {
    let mut library = params.library()?;
    if attack_idx >= library.len() {
        return Err(FademlError::InvalidConfig {
            reason: format!("attack index {attack_idx} out of range"),
        });
    }
    let base = library.swap_remove(attack_idx);
    let model = prepared.model.clone();
    Ok(match aware {
        None => base.run(&mut AttackSurface::new(model), source, goal)?,
        Some(spec) => Fademl::new(base, params.fademl_rounds, params.fademl_eta)?.run(
            &mut AttackSurface::with_filter(model, spec.build()?),
            source,
            goal,
        )?,
    })
}

/// Fetches the scenario's source image from the test set, falling back
/// to the training set if the split left the class empty.
pub(crate) fn scenario_image(prepared: &PreparedSetup, class: ClassId) -> Result<Tensor> {
    prepared
        .test
        .first_of_class(class)
        .or_else(|_| prepared.train.first_of_class(class))
        .map_err(FademlError::from)
}

/// The demonstration cell of one crafted example at one deployed
/// pipeline: the verdict when the image bypasses the filter (TM-I)
/// against the verdict under `threat`.
pub(crate) fn demonstration_cell(
    scenario: &Scenario,
    attack_idx: usize,
    pipeline: &InferencePipeline,
    threat: ThreatModel,
    adv: &AdversarialExample,
) -> Result<ScenarioCell> {
    let tm1 = pipeline.classify(&adv.adversarial, ThreatModel::I)?;
    let tm23 = pipeline.classify(&adv.adversarial, threat)?;
    let cost = top5_cost(&tm1.probabilities, &tm23.probabilities)?;
    Ok(ScenarioCell {
        scenario_id: scenario.id,
        attack: AttackParams::labels()[attack_idx].to_owned(),
        filter: pipeline.filter_spec(),
        tm1_class: tm1.class,
        tm1_confidence: tm1.confidence,
        tm23_class: tm23.class,
        tm23_confidence: tm23.confidence,
        cost,
        success_tm1: tm1.class == scenario.target.index(),
        success_tm23: tm23.class == scenario.target.index(),
        noise_linf: adv.noise_linf(),
    })
}

/// What one scenario contributes to a grid figure: its demonstration
/// cells (attack-major, filter-minor) and its accuracy grid.
pub(crate) type Stage = (Vec<ScenarioCell>, AccuracyGrid);

/// One attack's share of a [`Stage`]: its cells and its accuracy bars,
/// both in filter order.
type AttackRows = (Vec<ScenarioCell>, Vec<AccuracyCell>);

/// One call of a grid figure (Figs. 6, 7, 9): everything its
/// per-scenario stages share because it reads no scenario.
pub(crate) struct Sweep<'a> {
    prepared: &'a PreparedSetup,
    params: &'a AttackParams,
    filter_aware: bool,
    threat: ThreatModel,
    /// The evaluation subset: the first `eval_n` test images.
    clean: SignDataset,
    /// The deployed pipeline at each filter of the sweep, in sweep order.
    pipelines: Vec<InferencePipeline>,
    /// The `"No attack"` row: unattacked images through each filter.
    baseline: Vec<AccuracyCell>,
}

impl<'a> Sweep<'a> {
    /// `filter_aware == false` crafts blind against the bare DNN
    /// (Figs. 6/7), `true` through each deployed filter (FAdeML, Fig. 9).
    ///
    /// # Errors
    ///
    /// Returns an error for `eval_n == 0`; propagates filter and
    /// pipeline errors.
    pub(crate) fn over(
        prepared: &'a PreparedSetup,
        params: &'a AttackParams,
        filters: &[FilterSpec],
        filter_aware: bool,
        eval_n: usize,
        threat: ThreatModel,
    ) -> Result<Self> {
        let clean = prepared.test.take(eval_n.min(prepared.test.len()))?;
        let pipelines = filters
            .iter()
            .map(|&filter| InferencePipeline::new(prepared.model.clone(), filter))
            .collect::<Result<Vec<_>>>()?;
        let mut sweep = Sweep {
            prepared,
            params,
            filter_aware,
            threat,
            clean,
            pipelines,
            baseline: Vec::new(),
        };
        sweep.baseline = sweep
            .pipelines
            .iter()
            .map(|pipeline| sweep.bar(pipeline, "No attack", sweep.clean.images()))
            .collect::<Result<_>>()?;
        Ok(sweep)
    }

    /// One accuracy bar: top-5 accuracy of `pipeline` over `images`,
    /// which carry the labels of the evaluation subset.
    fn bar(
        &self,
        pipeline: &InferencePipeline,
        attack: &str,
        images: &Tensor,
    ) -> Result<AccuracyCell> {
        let labels = self.clean.labels();
        Ok(AccuracyCell {
            filter: pipeline.filter_spec(),
            attack: attack.to_owned(),
            top5_accuracy: pipeline.top_k_accuracy(images, labels, self.threat, 5)?,
        })
    }

    /// Crafts one example and spreads its noise over the evaluation
    /// subset, the way the paper's Figs. 6/7/9 accuracy bars are
    /// produced: the noise is crafted **once** on the scenario's source
    /// image, then that same pattern is added to every evaluation image
    /// (clamped into pixel range). It is tailored to a *different*
    /// image, so its effect on the dataset is a confidence/accuracy
    /// erosion rather than a wholesale misclassification — the paper's
    /// "up to 10%" top-5 drop.
    fn craft(
        &self,
        scenario: &Scenario,
        source: &Tensor,
        attack_idx: usize,
        aware: Option<FilterSpec>,
    ) -> Result<(AdversarialExample, Tensor)> {
        let (prepared, params) = (self.prepared, self.params);
        let adv = craft(prepared, params, attack_idx, aware, source, scenario.goal())?;
        // `[N, C, H, W] + [C, H, W]`: the noise broadcasts over the batch.
        let eval_set = self.clean.images().add(&adv.noise)?.clamp(0.0, 1.0);
        Ok((adv, eval_set))
    }

    /// One attack's share of a scenario. Every distinct adversarial
    /// example is crafted exactly once — one for a blind figure (it
    /// does not depend on the deployed filter), one per filter for a
    /// filter-aware one — and both its demonstration cell
    /// (`adversarial`) and its accuracy bar (`noise` over the
    /// evaluation subset) are read off that one example.
    fn attack_rows(&self, scenario: &Scenario, attack_idx: usize) -> Result<AttackRows> {
        let source = scenario_image(self.prepared, scenario.source)?;
        let blind = match self.filter_aware {
            false => Some(self.craft(scenario, &source, attack_idx, None)?),
            true => None,
        };
        let (mut cells, mut bars) = (Vec::new(), Vec::new());
        for pipeline in &self.pipelines {
            let aware;
            let (adv, eval_set) = match &blind {
                Some(shared) => shared,
                None => {
                    let filter = Some(pipeline.filter_spec());
                    aware = self.craft(scenario, &source, attack_idx, filter)?;
                    &aware
                }
            };
            let cell = demonstration_cell(scenario, attack_idx, pipeline, self.threat, adv)?;
            cells.push(cell);
            bars.push(self.bar(pipeline, AttackParams::labels()[attack_idx], eval_set)?);
        }
        Ok((cells, bars))
    }

    /// Runs the sweep: one [`Stage`] per scenario, in scenario order.
    ///
    /// The unit of parallel work is one (scenario, attack): five
    /// scenarios on two cores leave one of them idle for the last fifth
    /// of a call (a `repro_figs` pass read 0.84 s by scenario against
    /// 0.77 s by attack, interleaved).
    ///
    /// # Errors
    ///
    /// Propagates setup, attack and pipeline errors.
    pub(crate) fn run(&self, scenarios: &[Scenario]) -> Result<Vec<Stage>> {
        let attacks = AttackParams::labels().len();
        let items: Vec<_> = scenarios
            .iter()
            .flat_map(|scenario| (0..attacks).map(move |idx| (scenario, idx)))
            .collect();
        let mut rows = for_each_parallel(&items, |&(scenario, attack_idx)| {
            self.attack_rows(scenario, attack_idx)
        })?
        .into_iter();
        let mut stages = Vec::with_capacity(scenarios.len());
        for scenario in scenarios {
            let mut cells = Vec::new();
            let mut bars = self.baseline.clone();
            for (attack_cells, attack_bars) in rows.by_ref().take(attacks) {
                cells.extend(attack_cells);
                bars.extend(attack_bars);
            }
            let grid = AccuracyGrid {
                scenario: *scenario,
                cells: bars,
            };
            stages.push((cells, grid));
        }
        Ok(stages)
    }
}

/// Concatenates per-scenario stages into a figure's two result lists.
pub(crate) fn collect_stages(stages: Vec<Stage>) -> (Vec<ScenarioCell>, Vec<AccuracyGrid>) {
    let (cells, grids): (Vec<_>, Vec<_>) = stages.into_iter().unzip();
    (cells.into_iter().flatten().collect(), grids)
}

/// Figs. 7 and 9 compare TM-I against a filtered threat model.
pub(crate) fn require_filtered(figure: &str, threat: ThreatModel) -> Result<()> {
    if threat.filter_applies() {
        return Ok(());
    }
    Err(FademlError::InvalidConfig {
        reason: format!("{figure} requires Threat Model II or III"),
    })
}

/// Runs `job` for every item on `min(cores, items)` scoped workers
/// that pull the next item from a shared counter, and returns the
/// results in item order.
///
/// # Errors
///
/// Propagates the first job error in item order; a panicking job is an
/// [`FademlError::InvalidConfig`].
pub(crate) fn for_each_parallel<I, T, F>(items: &[I], job: F) -> Result<Vec<T>>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> Result<T> + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(items.len());
    let next = AtomicUsize::new(0);
    let results = parking_lot::Mutex::new(Vec::<(usize, Result<T>)>::new());
    crossbeam::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|_| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else {
                    break;
                };
                let outcome = job(item);
                results.lock().push((idx, outcome));
            });
        }
    })
    .map_err(|_| FademlError::InvalidConfig {
        reason: "a scenario worker panicked".into(),
    })?;
    let mut collected: Vec<(usize, Result<T>)> = results.into_inner();
    collected.sort_by_key(|(idx, _)| *idx);
    collected.into_iter().map(|(_, r)| r).collect()
}

/// Fraction of filtered cells (Figs. 7/9) where the targeted
/// misclassification survived the filter.
pub(crate) fn filtered_success_rate(cells: &[ScenarioCell]) -> f32 {
    let filtered: Vec<&ScenarioCell> = cells
        .iter()
        .filter(|c| c.filter != FilterSpec::None)
        .collect();
    if filtered.is_empty() {
        return 0.0;
    }
    filtered.iter().filter(|c| c.success_tm23).count() as f32 / filtered.len() as f32
}

/// One scenario's demonstration table (Figs. 7/9): a row per
/// `(attack label, row title)`, a column per filter, each cell the
/// class the pipeline reports.
pub(crate) fn verdict_table(
    title: String,
    corner: &str,
    rows: [(&str, String); 3],
    cells: &[ScenarioCell],
    scenario_id: usize,
    filters: &[FilterSpec],
) -> Table {
    let mut header = vec![corner.to_owned()];
    header.extend(filters.iter().map(|f| f.to_string()));
    let mut table = Table::new(title, header);
    for (label, row_title) in rows {
        let mut row = vec![row_title];
        for &filter in filters {
            let cell = cells
                .iter()
                .find(|c| c.scenario_id == scenario_id && c.attack == label && c.filter == filter);
            row.push(match cell {
                Some(c) => format!(
                    "{} ({}){}",
                    class_name(c.tm23_class),
                    pct(c.tm23_confidence),
                    if c.success_tm23 { " ⚠" } else { "" }
                ),
                None => "-".to_owned(),
            });
        }
        table.push_row(row);
    }
    table
}

/// One scenario's accuracy grid as a table (Figs. 7/9): rows = attack
/// condition, columns = filters.
pub(crate) fn accuracy_table(
    title: String,
    grids: &[AccuracyGrid],
    scenario_id: usize,
    filters: &[FilterSpec],
) -> Table {
    let mut header = vec!["Condition".to_owned()];
    header.extend(filters.iter().map(|f| f.to_string()));
    let mut table = Table::new(title, header);
    if let Some(grid) = grids.iter().find(|g| g.scenario.id == scenario_id) {
        for condition in std::iter::once("No attack").chain(AttackParams::labels()) {
            let mut row = vec![condition.to_owned()];
            for &filter in filters {
                row.push(
                    grid.accuracy(filter, condition)
                        .map(pct)
                        .unwrap_or_else(|| "-".to_owned()),
                );
            }
            table.push_row(row);
        }
    }
    table
}

/// Resolves a dataset class index to its human-readable name.
pub(crate) fn class_name(index: usize) -> String {
    ClassId::new(index)
        .map(|c| c.info().name.to_owned())
        .unwrap_or_else(|_| format!("class {index}"))
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
            bim_iterations: 4,
            lbfgs_iterations: 5,
            fademl_rounds: 1,
            ..AttackParams::default()
        }
    }

    /// One blind (scenario 1, attack, filter) cell under TM-III.
    fn scenario_cell(attack_idx: usize, filter: FilterSpec) -> Result<ScenarioCell> {
        let (p, scenario) = (prepared(), Scenario::paper_scenarios()[0]);
        let source = scenario_image(p, scenario.source)?;
        let goal = scenario.goal();
        let adv = craft(p, &cheap_params(), attack_idx, None, &source, goal)?;
        let pipeline = InferencePipeline::new(p.model.clone(), filter)?;
        demonstration_cell(&scenario, attack_idx, &pipeline, ThreatModel::III, &adv)
    }

    #[test]
    fn scenario_cell_fields_consistent() {
        let cell = scenario_cell(1, FilterSpec::Lap { np: 8 }).unwrap(); // FGSM
        assert_eq!(cell.scenario_id, 1);
        assert_eq!(cell.attack, "FGSM");
        assert!(cell.tm1_confidence > 0.0 && cell.tm1_confidence <= 1.0);
        assert!(cell.tm23_confidence > 0.0 && cell.tm23_confidence <= 1.0);
        assert!(cell.noise_linf > 0.0);
        assert_eq!(
            cell.success_tm1,
            cell.tm1_class == Scenario::paper_scenarios()[0].target.index()
        );
    }

    #[test]
    fn rejects_bad_attack_index() {
        let result = scenario_cell(7, FilterSpec::None);
        assert!(matches!(result, Err(FademlError::InvalidConfig { .. })));
    }

    #[test]
    fn craft_eval_set_shapes() {
        let (p, params) = (prepared(), cheap_params());
        let scenario = Scenario::paper_scenarios()[0];
        let source = scenario_image(p, scenario.source).unwrap();
        let sweep = Sweep::over(p, &params, &[], false, 4, ThreatModel::III).unwrap();
        let (adv, eval_set) = sweep.craft(&scenario, &source, 1, None).unwrap();
        assert_eq!(adv.adversarial.dims(), source.dims());
        assert_eq!(eval_set.dims()[0], 4);
        assert!(eval_set.min().unwrap() >= 0.0 && eval_set.max().unwrap() <= 1.0);
        assert!(Sweep::over(p, &params, &[], false, 0, ThreatModel::III).is_err());
    }

    #[test]
    fn accuracy_grid_covers_all_cells() {
        let filters = [FilterSpec::None, FilterSpec::Lap { np: 8 }];
        let params = cheap_params();
        let sweep = Sweep::over(prepared(), &params, &filters, false, 4, ThreatModel::III).unwrap();
        let scenarios = &Scenario::paper_scenarios()[..1];
        let (cells, grid) = sweep.run(scenarios).unwrap().remove(0);
        // 3 attacks × 2 filters, and (3 attacks + no-attack) × 2 filters.
        assert_eq!(cells.len(), 6);
        assert_eq!(grid.cells.len(), 8);
        for cell in &grid.cells {
            assert!((0.0..=1.0).contains(&cell.top5_accuracy));
        }
        assert!(grid.accuracy(FilterSpec::None, "No attack").is_some());
        assert!(grid.accuracy(FilterSpec::Lap { np: 8 }, "FGSM").is_some());
        assert!(grid.accuracy(FilterSpec::Lar { r: 5 }, "FGSM").is_none());
    }

    /// The per-cell path the stage replaced, restated on the public
    /// API: every cell and every bar crafts its own example on a fresh
    /// surface and evaluates it on a fresh pipeline.
    fn per_cell_stage(
        params: &AttackParams,
        scenario: &Scenario,
        filters: &[FilterSpec],
        filter_aware: bool,
        eval_n: usize,
    ) -> Stage {
        let p = prepared();
        let source = p.test.first_of_class(scenario.source).unwrap();
        let craft = |attack_idx: usize, filter: FilterSpec| {
            let base = params.library().unwrap().swap_remove(attack_idx);
            if !filter_aware {
                let mut surface = AttackSurface::new(p.model.clone());
                return base.run(&mut surface, &source, scenario.goal()).unwrap();
            }
            let mut surface = AttackSurface::with_filter(p.model.clone(), filter.build().unwrap());
            Fademl::new(base, params.fademl_rounds, params.fademl_eta)
                .unwrap()
                .run(&mut surface, &source, scenario.goal())
                .unwrap()
        };
        let pipeline = |filter| InferencePipeline::new(p.model.clone(), filter).unwrap();
        let threat = ThreatModel::III;
        let labels = &p.test.labels()[..eval_n];
        let accuracy = |filter, attack: &str, images: &Tensor| AccuracyCell {
            filter,
            attack: attack.to_owned(),
            top5_accuracy: pipeline(filter)
                .top_k_accuracy(images, labels, threat, 5)
                .unwrap(),
        };

        let mut cells = Vec::new();
        let clean: Vec<Tensor> = (0..eval_n).map(|i| p.test.sample(i).unwrap().0).collect();
        let stacked = Tensor::stack(&clean).unwrap();
        let mut bars: Vec<AccuracyCell> = filters
            .iter()
            .map(|&f| accuracy(f, "No attack", &stacked))
            .collect();
        for (attack_idx, label) in AttackParams::labels().iter().enumerate() {
            for &filter in filters {
                let adv = craft(attack_idx, filter);
                let tm1 = pipeline(filter)
                    .classify(&adv.adversarial, ThreatModel::I)
                    .unwrap();
                let tm23 = pipeline(filter).classify(&adv.adversarial, threat).unwrap();
                cells.push(ScenarioCell {
                    scenario_id: scenario.id,
                    attack: (*label).to_owned(),
                    filter,
                    tm1_class: tm1.class,
                    tm1_confidence: tm1.confidence,
                    tm23_class: tm23.class,
                    tm23_confidence: tm23.confidence,
                    cost: top5_cost(&tm1.probabilities, &tm23.probabilities).unwrap(),
                    success_tm1: tm1.class == scenario.target.index(),
                    success_tm23: tm23.class == scenario.target.index(),
                    noise_linf: adv.noise.norm_linf(),
                });
                let noise = craft(attack_idx, filter).noise;
                let perturbed: Vec<Tensor> = clean
                    .iter()
                    .map(|image| image.add(&noise).unwrap().clamp(0.0, 1.0))
                    .collect();
                bars.push(accuracy(filter, label, &Tensor::stack(&perturbed).unwrap()));
            }
        }
        let grid = AccuracyGrid {
            scenario: *scenario,
            cells: bars,
        };
        (cells, grid)
    }

    #[test]
    fn stage_equals_the_per_cell_path_field_for_field() {
        let filters = [FilterSpec::Lap { np: 8 }, FilterSpec::Lar { r: 2 }];
        let params = cheap_params();
        let scenarios = &Scenario::paper_scenarios()[1..3];
        for filter_aware in [false, true] {
            let sweep = Sweep::over(
                prepared(),
                &params,
                &filters,
                filter_aware,
                4,
                ThreatModel::III,
            )
            .unwrap();
            let stages = sweep.run(scenarios).unwrap();
            assert_eq!(stages.len(), scenarios.len());
            for (scenario, stage) in scenarios.iter().zip(&stages) {
                let want = per_cell_stage(&params, scenario, &filters, filter_aware, 4);
                assert_eq!(stage, &want, "filter_aware={filter_aware}");
            }
        }
    }

    /// More scenarios than any host has cores for.
    fn many_scenarios() -> Vec<Scenario> {
        let paper = Scenario::paper_scenarios();
        (0..64)
            .map(|id| Scenario {
                id,
                ..paper[id % paper.len()]
            })
            .collect()
    }

    #[test]
    fn parallel_scenarios_preserve_order() {
        let scenarios = Scenario::paper_scenarios();
        let ids = for_each_parallel(&scenarios, |s| Ok(s.id)).unwrap();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        let ids = for_each_parallel(&many_scenarios(), |s| Ok(s.id)).unwrap();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
        let none = for_each_parallel(&[], |s: &Scenario| Ok(s.id)).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn parallel_scenarios_never_exceed_the_cores() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let (running, high_water) = (AtomicUsize::new(0), AtomicUsize::new(0));
        for_each_parallel(&many_scenarios(), |_| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            // Hold the slot across a reschedule so overlap would show.
            std::thread::yield_now();
            running.fetch_sub(1, Ordering::SeqCst);
            Ok(())
        })
        .unwrap();
        let peak = high_water.load(Ordering::SeqCst);
        assert!(
            (1..=cores).contains(&peak),
            "{peak} jobs at once on {cores} cores"
        );
    }

    #[test]
    fn parallel_scenarios_surface_errors_and_panics() {
        let failed = for_each_parallel(&many_scenarios(), |s| match s.id {
            7 | 40 => Err(FademlError::Corrupt {
                reason: format!("job {}", s.id),
            }),
            id => Ok(id),
        });
        // The job's own error, and the first in scenario order.
        assert!(matches!(failed, Err(FademlError::Corrupt { reason }) if reason == "job 7"));

        let panicked = for_each_parallel(&many_scenarios(), |s| {
            assert_ne!(s.id, 9, "job 9 panics");
            Ok(s.id)
        });
        assert!(matches!(panicked, Err(FademlError::InvalidConfig { .. })));
    }

    #[test]
    fn class_name_lookup() {
        assert_eq!(class_name(14), "stop");
        assert_eq!(class_name(999), "class 999");
    }
}

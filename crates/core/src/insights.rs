//! Quantitative verification of the paper's *Key Insights* (§III-C and
//! §IV-B):
//!
//! 1. Gradient-based adversarial noise is removed by LAP/LAR smoothing,
//!    though classification confidence still suffers.
//! 2. Top-5 accuracy rises with filter strength up to an interior
//!    optimum (paper: `np = 32`, `r = 3..4`) and falls beyond it.
//! 3. A successful attack must model the pre-processing stages — the
//!    filter-aware FAdeML attacks survive where blind attacks die.
//!
//! These functions turn experiment results into checkable statements:
//! [`KeyInsights::claims`] says held or not held for each of
//! EXPERIMENTS.md's three shape claims, against the constants below,
//! which are taken from the claims' own wording.

use std::fmt;

use fademl_filters::FilterSpec;

use crate::experiments::fig7::Fig7Result;
use crate::experiments::fig9::Fig9Result;
use crate::experiments::{AccuracyGrid, AttackParams, ScenarioCell};
use crate::{FademlError, Result};

/// Claim 1: no blind cell succeeds through LAP with at least this many
/// neighbours.
pub const BLIND_DEAD_FROM_LAP_NP: usize = 16;
/// Claim 1: no blind cell succeeds through LAR with at least this radius.
pub const BLIND_DEAD_FROM_LAR_R: usize = 2;
/// Claim 3: FAdeML's filtered success rate is at least this.
pub const FADEML_MIN_SUCCESS: f32 = 0.70;
/// Claim 3: FAdeML leads the blind attacks' filtered success rate by at
/// least this.
pub const FADEML_MIN_LEAD: f32 = 0.30;

/// One accuracy-vs-strength series for a single filter family.
#[derive(Debug, Clone, PartialEq)]
pub struct HumpSeries {
    /// The filter-strength parameter (`np` for LAP, `r` for LAR).
    pub params: Vec<usize>,
    /// Top-5 accuracy at each strength.
    pub accuracies: Vec<f32>,
}

/// Which filter family a series sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterFamily {
    /// Local average with `np` neighbours.
    Lap,
    /// Local average with radius `r`.
    Lar,
}

/// Where a [`HumpSeries`] reaches its maximum, and by how much that
/// maximum clears both ends of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Peak {
    /// Every strength tied at the maximum, ascending.
    pub params: Vec<usize>,
    /// The maximum minus the accuracy at the weakest filter.
    pub over_weakest: f32,
    /// The maximum minus the accuracy at the strongest filter.
    pub over_strongest: f32,
}

impl Peak {
    /// `false` when the maximum includes the weakest filter: the series
    /// never rises above its start, so it has no interior optimum.
    pub fn is_interior(&self) -> bool {
        self.over_weakest > 0.0
    }

    /// Insight 2's hump: an interior peak, and the strongest filter
    /// reads below it.
    pub fn is_hump(&self) -> bool {
        self.is_interior() && self.over_strongest > 0.0
    }
}

impl fmt::Display for Peak {
    /// `{4}`, or `{4, 8}` for a tie.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params: Vec<String> = self.params.iter().map(usize::to_string).collect();
        write!(f, "{{{}}}", params.join(", "))
    }
}

impl HumpSeries {
    /// Extracts the series for `family` and `attack` from an accuracy
    /// grid, ordered by increasing filter strength.
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::InvalidConfig`] if the grid has no cells
    /// for that family/attack.
    pub fn extract(grid: &AccuracyGrid, family: FilterFamily, attack: &str) -> Result<Self> {
        let mut pairs: Vec<(usize, f32)> = grid
            .cells
            .iter()
            .filter(|c| c.attack == attack)
            .filter_map(|c| match (family, c.filter) {
                (FilterFamily::Lap, FilterSpec::Lap { np }) => Some((np, c.top5_accuracy)),
                (FilterFamily::Lar, FilterSpec::Lar { r }) => Some((r, c.top5_accuracy)),
                _ => None,
            })
            .collect();
        if pairs.is_empty() {
            return Err(FademlError::InvalidConfig {
                reason: format!("no {family:?} cells for attack {attack:?} in grid"),
            });
        }
        pairs.sort_by_key(|(p, _)| *p);
        Ok(HumpSeries {
            params: pairs.iter().map(|(p, _)| *p).collect(),
            accuracies: pairs.iter().map(|(_, a)| *a).collect(),
        })
    }

    /// The series' maximum: every strength tied at it, and its margins
    /// over the weakest and the strongest filter.
    pub fn peak(&self) -> Peak {
        let max = self
            .accuracies
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max);
        let params = self
            .params
            .iter()
            .zip(&self.accuracies)
            .filter(|(_, &a)| a == max)
            .map(|(&p, _)| p)
            .collect();
        let at = |end: Option<&f32>| max - end.copied().unwrap_or(max);
        Peak {
            params,
            over_weakest: at(self.accuracies.first()),
            over_strongest: at(self.accuracies.last()),
        }
    }
}

/// The peak of one (scenario, attack) accuracy row over one filter
/// family.
#[derive(Debug, Clone, PartialEq)]
pub struct RowPeak {
    /// Scenario number (1-5).
    pub scenario_id: usize,
    /// Attack label.
    pub attack: &'static str,
    /// Where the row peaks.
    pub peak: Peak,
}

/// One of EXPERIMENTS.md's shape claims, checked against one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What the claim says.
    pub statement: String,
    /// Whether this run shows it.
    pub held: bool,
    /// The numbers the verdict rests on.
    pub evidence: String,
}

impl Claim {
    /// `"held"` or `"not held"`.
    pub fn verdict(&self) -> &'static str {
        if self.held {
            "held"
        } else {
            "not held"
        }
    }
}

/// Quantified statements of the three key insights for one paired
/// Fig. 7 / Fig. 9 run.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyInsights {
    /// Insight 1a: targeted success rate of the blind attacks through
    /// the filters (paper: ≈ 0).
    pub blind_filtered_success: f32,
    /// Insight 1b: mean confidence loss the surviving true class pays
    /// under filtering (paper: "confidence is still affected").
    pub mean_confidence_drop: f32,
    /// Insight 2: the LAP peak of every (scenario, attack) row.
    pub lap_peaks: Vec<RowPeak>,
    /// Insight 2: the LAR peak of every (scenario, attack) row.
    pub lar_peaks: Vec<RowPeak>,
    /// Insight 3: FAdeML's filtered success rate (paper: high).
    pub fademl_filtered_success: f32,
    /// Claim 1's counter-examples: blind cells whose target class
    /// survived LAP(np ≥ [`BLIND_DEAD_FROM_LAP_NP`]) or
    /// LAR(r ≥ [`BLIND_DEAD_FROM_LAR_R`]).
    pub strong_filter_survivors: Vec<ScenarioCell>,
}

impl KeyInsights {
    /// Derives the insight numbers from paired experiment results.
    ///
    /// # Errors
    ///
    /// Returns [`FademlError::InvalidConfig`] if the grids lack LAP/LAR
    /// cells.
    pub fn derive(fig7: &Fig7Result, fig9: &Fig9Result) -> Result<Self> {
        // Confidence drop: TM-I confidence minus filtered confidence over
        // all non-trivial Fig. 7 cells.
        let mut drops = Vec::new();
        for cell in &fig7.cells {
            if cell.filter != FilterSpec::None {
                drops.push(cell.tm1_confidence - cell.tm23_confidence);
            }
        }
        let mean_confidence_drop = if drops.is_empty() {
            0.0
        } else {
            drops.iter().sum::<f32>() / drops.len() as f32
        };

        let mut lap_peaks = Vec::new();
        let mut lar_peaks = Vec::new();
        for grid in &fig7.grids {
            for attack in AttackParams::labels() {
                for (family, peaks) in [
                    (FilterFamily::Lap, &mut lap_peaks),
                    (FilterFamily::Lar, &mut lar_peaks),
                ] {
                    if let Ok(series) = HumpSeries::extract(grid, family, attack) {
                        peaks.push(RowPeak {
                            scenario_id: grid.scenario.id,
                            attack,
                            peak: series.peak(),
                        });
                    }
                }
            }
        }
        if lap_peaks.is_empty() && lar_peaks.is_empty() {
            return Err(FademlError::InvalidConfig {
                reason: "fig7 grids contain no LAP or LAR accuracy cells".into(),
            });
        }
        let strong_filter_survivors = fig7
            .cells
            .iter()
            .filter(|c| c.success_tm23 && at_least_claim_strength(c.filter))
            .cloned()
            .collect();
        Ok(KeyInsights {
            blind_filtered_success: fig7.filtered_success_rate(),
            mean_confidence_drop,
            lap_peaks,
            lar_peaks,
            fademl_filtered_success: fig9.filtered_success_rate(),
            strong_filter_survivors,
        })
    }

    /// The three shape claims, in EXPERIMENTS.md's order.
    pub fn claims(&self) -> [Claim; 3] {
        [self.blind_claim(), self.hump_claim(), self.fademl_claim()]
    }

    /// Claim 1: the filters neutralise every blind attack from
    /// LAP(16) / LAR(2) on.
    fn blind_claim(&self) -> Claim {
        let survivors: Vec<String> = self
            .strong_filter_survivors
            .iter()
            .map(|c| format!("{} survives {} in S{}", c.attack, c.filter, c.scenario_id))
            .collect();
        Claim {
            statement: format!(
                "no blind cell succeeds at LAP(np ≥ {BLIND_DEAD_FROM_LAP_NP}) \
                 or LAR(r ≥ {BLIND_DEAD_FROM_LAR_R})"
            ),
            held: survivors.is_empty(),
            evidence: if survivors.is_empty() {
                "no such cell".to_owned()
            } else {
                survivors.join("; ")
            },
        }
    }

    /// Claim 2: accuracy is hump-shaped in filter strength somewhere.
    fn hump_claim(&self) -> Claim {
        let rows = self.lap_peaks.iter().chain(&self.lar_peaks);
        let total = self.lap_peaks.len() + self.lar_peaks.len();
        let interior = rows.clone().filter(|r| r.peak.is_interior()).count();
        let humps: Vec<&Peak> = rows.map(|r| &r.peak).filter(|p| p.is_hump()).collect();
        let rise = humps.iter().map(|p| p.over_weakest).fold(0.0, f32::max);
        Claim {
            statement: "some row has an interior peak, and its strongest filter reads \
                        below that peak"
                .to_owned(),
            held: !humps.is_empty(),
            evidence: format!(
                "{interior} of {total} rows peak past their weakest filter, {} of them \
                 fall again at the strongest; the largest such rise is {:+.1} points",
                humps.len(),
                rise * 100.0
            ),
        }
    }

    /// Claim 3: FAdeML survives the filters, and filter awareness is
    /// what buys it.
    fn fademl_claim(&self) -> Claim {
        let (aware, blind) = (self.fademl_filtered_success, self.blind_filtered_success);
        Claim {
            statement: format!(
                "FAdeML filtered success ≥ {:.0}% and ≥ blind + {:.0} points",
                FADEML_MIN_SUCCESS * 100.0,
                FADEML_MIN_LEAD * 100.0
            ),
            held: aware >= FADEML_MIN_SUCCESS && aware >= blind + FADEML_MIN_LEAD,
            evidence: format!(
                "FAdeML {:.0}% vs blind {:.0}% ({:+.0} points)",
                aware * 100.0,
                blind * 100.0,
                (aware - blind) * 100.0
            ),
        }
    }

    /// A short human-readable digest.
    pub fn summary(&self) -> String {
        format!(
            "blind filtered success {:.0}% | FAdeML filtered success {:.0}% | \
             mean confidence drop {:+.1}pp",
            self.blind_filtered_success * 100.0,
            self.fademl_filtered_success * 100.0,
            self.mean_confidence_drop * 100.0,
        )
    }
}

/// `true` for a filter at least as strong as claim 1's thresholds.
fn at_least_claim_strength(filter: FilterSpec) -> bool {
    match filter {
        FilterSpec::Lap { np } => np >= BLIND_DEAD_FROM_LAP_NP,
        FilterSpec::Lar { r } => r >= BLIND_DEAD_FROM_LAR_R,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{AccuracyCell, AccuracyGrid};
    use crate::{Scenario, ThreatModel};

    fn grid_with(cells: Vec<(FilterSpec, &str, f32)>) -> AccuracyGrid {
        AccuracyGrid {
            scenario: Scenario::paper_scenarios()[0],
            cells: cells
                .into_iter()
                .map(|(filter, attack, top5_accuracy)| AccuracyCell {
                    filter,
                    attack: attack.to_owned(),
                    top5_accuracy,
                })
                .collect(),
        }
    }

    fn lar_series(accuracies: &[f32]) -> HumpSeries {
        let cells = (1..)
            .zip(accuracies)
            .map(|(r, &a)| (FilterSpec::Lar { r }, "BIM", a))
            .collect();
        HumpSeries::extract(&grid_with(cells), FilterFamily::Lar, "BIM").unwrap()
    }

    #[test]
    fn extracts_sorted_series() {
        let grid = grid_with(vec![
            (FilterSpec::Lap { np: 64 }, "FGSM", 0.5),
            (FilterSpec::Lap { np: 4 }, "FGSM", 0.7),
            (FilterSpec::Lap { np: 32 }, "FGSM", 0.9),
            (FilterSpec::Lar { r: 2 }, "FGSM", 0.6),
            (FilterSpec::None, "FGSM", 0.8),
        ]);
        let series = HumpSeries::extract(&grid, FilterFamily::Lap, "FGSM").unwrap();
        assert_eq!(series.params, vec![4, 32, 64]);
        assert_eq!(series.accuracies, vec![0.7, 0.9, 0.5]);
        let peak = series.peak();
        assert_eq!(peak.params, vec![32]);
        assert_eq!(peak.to_string(), "{32}");
        assert!(peak.is_interior() && peak.is_hump());
    }

    #[test]
    fn tied_row_lists_every_maximum() {
        let peak = lar_series(&[0.5, 0.75, 0.75, 0.5]).peak();
        assert_eq!(peak.params, vec![2, 3]);
        assert_eq!(peak.to_string(), "{2, 3}");
        assert_eq!((peak.over_weakest, peak.over_strongest), (0.25, 0.25));
        assert!(peak.is_hump());
        // A tie that takes in the weakest filter is no interior peak.
        let peak = lar_series(&[0.75, 0.75, 0.5]).peak();
        assert_eq!(peak.params, vec![1, 2]);
        assert!(!peak.is_interior() && !peak.is_hump());
    }

    #[test]
    fn flat_row_has_no_interior_peak() {
        let peak = lar_series(&[0.9; 5]).peak();
        assert_eq!(peak.params, vec![1, 2, 3, 4, 5]);
        assert_eq!((peak.over_weakest, peak.over_strongest), (0.0, 0.0));
        assert!(!peak.is_interior() && !peak.is_hump());
    }

    #[test]
    fn missing_cells_error() {
        let grid = grid_with(vec![(FilterSpec::None, "FGSM", 0.8)]);
        assert!(HumpSeries::extract(&grid, FilterFamily::Lap, "FGSM").is_err());
        assert!(HumpSeries::extract(&grid, FilterFamily::Lar, "BIM").is_err());
    }

    #[test]
    fn monotone_series_has_no_interior_degradation() {
        let peak = lar_series(&[0.5, 0.6, 0.7]).peak();
        assert_eq!(peak.params, vec![3]);
        assert!(peak.is_interior());
        assert_eq!(peak.over_strongest, 0.0);
        assert!(!peak.is_hump());
    }

    /// A blind cell of scenario 1 through `filter`.
    fn cell(attack: &str, filter: FilterSpec, success_tm23: bool) -> ScenarioCell {
        ScenarioCell {
            scenario_id: 1,
            attack: attack.to_owned(),
            filter,
            tm1_class: 3,
            tm1_confidence: 0.9,
            tm23_class: if success_tm23 { 3 } else { 14 },
            tm23_confidence: 0.8,
            cost: 0.0,
            success_tm1: true,
            success_tm23,
            noise_linf: 0.08,
        }
    }

    /// Insights of a synthetic run: `blind` cells and one accuracy row
    /// per family for Fig. 7; `aware` FAdeML successes out of ten
    /// filtered cells for Fig. 9.
    fn synthetic(blind: Vec<ScenarioCell>, lap: &[f32], lar: &[f32], aware: usize) -> KeyInsights {
        let mut bars: Vec<(FilterSpec, &str, f32)> = Vec::new();
        for (&np, &a) in [4, 8, 16, 32, 64].iter().zip(lap) {
            bars.push((FilterSpec::Lap { np }, "BIM", a));
        }
        for (r, &a) in (1..).zip(lar) {
            bars.push((FilterSpec::Lar { r }, "BIM", a));
        }
        let fig7 = Fig7Result {
            cells: blind,
            grids: vec![grid_with(bars)],
            threat: ThreatModel::III,
        };
        let fig9 = Fig9Result {
            cells: (0..10)
                .map(|i| cell("BIM", FilterSpec::Lar { r: 1 }, i < aware))
                .collect(),
            grids: Vec::new(),
            threat: ThreatModel::III,
        };
        KeyInsights::derive(&fig7, &fig9).unwrap()
    }

    #[test]
    fn claims_hold_on_a_paper_shaped_run() {
        let blind = vec![
            cell("FGSM", FilterSpec::Lap { np: 8 }, true),
            cell("FGSM", FilterSpec::Lap { np: 16 }, false),
            cell("BIM", FilterSpec::Lar { r: 1 }, true),
            cell("BIM", FilterSpec::Lar { r: 2 }, false),
        ];
        let insights = synthetic(blind, &[0.8, 0.9, 0.95, 0.9, 0.7], &[0.9; 5], 9);
        assert_eq!(insights.blind_filtered_success, 0.5);
        assert_eq!(insights.lap_peaks.len(), 1);
        assert_eq!(insights.lap_peaks[0].peak.params, vec![16]);
        let claims = insights.claims();
        assert!(claims.iter().all(|c| c.held), "{claims:?}");
        assert!(claims[1].evidence.starts_with("1 of 2 rows"));
    }

    #[test]
    fn each_claim_breaks_on_its_own_counter_example() {
        // One of four blind cells alive, at LAP(16): claim 1 fails and
        // names it.
        let blind = vec![
            cell("FGSM", FilterSpec::Lap { np: 16 }, true),
            cell("FGSM", FilterSpec::Lap { np: 4 }, false),
            cell("BIM", FilterSpec::Lar { r: 1 }, false),
            cell("BIM", FilterSpec::Lar { r: 2 }, false),
        ];
        let [one, two, three] =
            synthetic(blind, &[0.8, 0.9, 0.95, 0.9, 0.7], &[0.9; 5], 9).claims();
        assert!(!one.held && two.held && three.held);
        assert_eq!(one.evidence, "FGSM survives LAP(16) in S1");
        assert_eq!(one.verdict(), "not held");

        // Every row saturated at its weakest filter: no interior peak.
        let blind = vec![cell("FGSM", FilterSpec::Lap { np: 4 }, false)];
        let [_, two, _] =
            synthetic(blind.clone(), &[0.99, 0.99, 0.98, 0.9, 0.8], &[0.99; 5], 9).claims();
        assert!(!two.held);
        assert!(two.evidence.starts_with("0 of 2 rows"));

        // FAdeML at 60 %: above blind + 30 points, below 70 %.
        let [_, _, three] = synthetic(blind.clone(), &[0.9; 5], &[0.9; 5], 6).claims();
        assert!(!three.held);
        // FAdeML at 70 % against a blind 50 %: the lead is too small.
        let half_alive = vec![
            cell("FGSM", FilterSpec::Lap { np: 4 }, true),
            cell("FGSM", FilterSpec::Lap { np: 8 }, false),
        ];
        let [_, _, three] = synthetic(half_alive, &[0.9; 5], &[0.9; 5], 7).claims();
        assert!(!three.held);
        assert_eq!(three.evidence, "FAdeML 70% vs blind 50% (+20 points)");
    }
}

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Filter, Identity, Lap, Lar, Result};

/// A declarative filter configuration — the unit of the paper's filter
/// sweeps (`No Filter, LAP(4..64), LAR(1..5)` in Figs. 7 and 9).
///
/// # Example
///
/// ```
/// use fademl_filters::FilterSpec;
///
/// # fn main() -> Result<(), fademl_filters::FilterError> {
/// let sweep = FilterSpec::paper_sweep();
/// assert_eq!(sweep.len(), 11); // None + 5 LAP + 5 LAR
/// let filter = sweep[1].build()?;
/// assert_eq!(filter.name(), "LAP(4)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FilterSpec {
    /// No pre-processing.
    None,
    /// Local average with `np` neighbours.
    Lap {
        /// Neighbour count.
        np: usize,
    },
    /// Local average over the disc of radius `r`.
    Lar {
        /// Disc radius in pixels.
        r: usize,
    },
}

impl FilterSpec {
    /// Builds the concrete filter.
    ///
    /// # Errors
    ///
    /// Propagates parameter-validation errors from the filter
    /// constructors.
    pub fn build(&self) -> Result<Box<dyn Filter>> {
        Ok(match *self {
            FilterSpec::None => Box::new(Identity::new()),
            FilterSpec::Lap { np } => Box::new(Lap::new(np)?),
            FilterSpec::Lar { r } => Box::new(Lar::new(r)?),
        })
    }

    /// The 11 configurations of the paper's Figs. 7 and 9:
    /// `None`, `LAP(4..64)`, `LAR(1..5)`.
    pub fn paper_sweep() -> Vec<FilterSpec> {
        let mut specs = Vec::default();
        specs.push(FilterSpec::None);
        specs.extend(Lap::PAPER_SWEEP.iter().map(|&np| FilterSpec::Lap { np }));
        specs.extend(Lar::PAPER_SWEEP.iter().map(|&r| FilterSpec::Lar { r }));
        specs
    }
}

impl Default for FilterSpec {
    /// No filtering.
    fn default() -> Self {
        FilterSpec::None
    }
}

impl fmt::Display for FilterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterSpec::None => write!(f, "None"),
            FilterSpec::Lap { np } => write!(f, "LAP({np})"),
            FilterSpec::Lar { r } => write!(f, "LAR({r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_variant() {
        for spec in [
            FilterSpec::None,
            FilterSpec::Lap { np: 8 },
            FilterSpec::Lar { r: 2 },
        ] {
            let filter = spec.build().unwrap();
            assert!(!filter.name().is_empty());
        }
    }

    #[test]
    fn invalid_parameters_propagate() {
        assert!(FilterSpec::Lap { np: 0 }.build().is_err());
        assert!(FilterSpec::Lar { r: 0 }.build().is_err());
    }

    #[test]
    fn paper_sweep_matches_figure_layout() {
        let sweep = FilterSpec::paper_sweep();
        assert_eq!(sweep.len(), 11);
        assert_eq!(sweep[0], FilterSpec::None);
        assert_eq!(sweep[1], FilterSpec::Lap { np: 4 });
        assert_eq!(sweep[5], FilterSpec::Lap { np: 64 });
        assert_eq!(sweep[6], FilterSpec::Lar { r: 1 });
        assert_eq!(sweep[10], FilterSpec::Lar { r: 5 });
    }

    #[test]
    fn display_matches_filter_names() {
        for spec in FilterSpec::paper_sweep() {
            assert_eq!(spec.to_string(), spec.build().unwrap().name());
        }
    }

    #[test]
    fn default_is_none() {
        assert_eq!(FilterSpec::default(), FilterSpec::None);
    }
}

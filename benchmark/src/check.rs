//! Output checks and failure accounting, in the benchmark's own types:
//! the adapter turns every product verdict into an [`Answer`] and the
//! rules below decide whether it is the right one.

/// What the system answered for one image. Probabilities are kept as
/// bit patterns: the check is bit-for-bit, not within a tolerance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub class: usize,
    /// Top-5 ranking as (class, probability bits).
    pub top5: Vec<(usize, u32)>,
    pub probability_bits: Vec<u32>,
    /// The triage annotation, when the serving layer scored the image.
    pub triage: Option<Triage>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Triage {
    pub flagged: bool,
    pub hardened: bool,
}

impl Answer {
    fn same_verdict(&self, other: &Answer) -> bool {
        self.class == other.class
            && self.top5 == other.top5
            && self.probability_bits == other.probability_bits
    }
}

/// The answers one (image, threat model) pair may legitimately get: the
/// deployed pipeline's, or, when the fitted detector scores the image
/// at or above the triage threshold, the hardened pipeline's under the
/// escalated threat model.
#[derive(Clone, Debug)]
pub struct Reference {
    pub deployed: Answer,
    pub hardened: Option<Answer>,
}

/// Judges one answer. `Ok(flagged)` when it is the reference answer for
/// the path it took, `Err(name of the broken check)` otherwise.
pub fn judge(reference: &Reference, got: &Answer) -> Result<bool, &'static str> {
    match got.triage {
        Some(Triage {
            flagged: true,
            hardened,
        }) => match &reference.hardened {
            _ if !hardened => Err("flagged verdict not served on the hardened path"),
            None => Err("flagged an image the detector scores below the threshold"),
            Some(expected) if !got.same_verdict(expected) => {
                Err("flagged verdict differs from the hardened pipeline's")
            }
            Some(_) => Ok(true),
        },
        Some(Triage { hardened: true, .. }) => Err("unflagged verdict served on the hardened path"),
        Some(_) if reference.hardened.is_some() => {
            Err("served unflagged an image the detector scores above the threshold")
        }
        _ if got.same_verdict(&reference.deployed) => Ok(false),
        _ => Err("verdict differs from the deployed pipeline's"),
    }
}

/// Per-run accounting. A request that is refused, errors or answers
/// wrongly counts as failed and contributes no latency sample.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub latencies_us: Vec<f64>,
    /// Served (clean, adversarial) requests that carried a triage flag.
    pub flagged: [u64; 2],
    /// Served (clean, adversarial) requests.
    pub served: [u64; 2],
    /// The first failure seen, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Records one finished request: `outcome` is the system's answer or
    /// its typed error, already judged.
    pub fn record(&mut self, latency_us: f64, adversarial: bool, outcome: Result<bool, String>) {
        self.attempted += 1;
        match outcome {
            Ok(flagged) => {
                self.latencies_us.push(latency_us);
                self.served[usize::from(adversarial)] += 1;
                self.flagged[usize::from(adversarial)] += u64::from(flagged);
            }
            Err(reason) => {
                self.failed += 1;
                self.first_failure.get_or_insert(reason);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        for i in 0..2 {
            self.flagged[i] += other.flagged[i];
            self.served[i] += other.served[i];
        }
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }

    pub fn flag_rate(&self, adversarial: bool) -> f64 {
        let i = usize::from(adversarial);
        if self.served[i] == 0 {
            0.0
        } else {
            self.flagged[i] as f64 / self.served[i] as f64
        }
    }
}

/// The names a run emitted must be exactly the names `BENCHMARK.json`
/// declares, each well-formed and within the contract's counts.
pub fn names_match(
    kind: &str,
    declared: &[String],
    emitted: &[String],
    cap: usize,
) -> Result<(), String> {
    let well_formed = |name: &String| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    };
    if let Some(bad) = declared.iter().chain(emitted).find(|n| !well_formed(n)) {
        return Err(format!("{kind} name {bad:?} is not made of [A-Za-z0-9_.-]"));
    }
    if declared.len() > cap {
        return Err(format!(
            "{} {kind} names declared, at most {cap} allowed",
            declared.len()
        ));
    }
    if let Some(missing) = declared.iter().find(|n| !emitted.contains(n)) {
        return Err(format!("declared {kind} {missing:?} was not emitted"));
    }
    if let Some(extra) = emitted.iter().find(|n| !declared.contains(n)) {
        return Err(format!(
            "emitted {kind} {extra:?} is not declared in BENCHMARK.json"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(class: usize, p: f32, triage: Option<Triage>) -> Answer {
        Answer {
            class,
            top5: vec![(class, p.to_bits())],
            probability_bits: vec![p.to_bits(), (1.0 - p).to_bits()],
            triage,
        }
    }

    /// An image the detector flags, and one it does not.
    fn reference() -> Reference {
        Reference {
            deployed: answer(3, 0.75, None),
            hardened: Some(answer(4, 0.5, None)),
        }
    }

    fn clean_reference() -> Reference {
        Reference {
            deployed: answer(3, 0.75, None),
            hardened: None,
        }
    }

    const CLEAN: Option<Triage> = Some(Triage {
        flagged: false,
        hardened: false,
    });
    const FLAGGED: Option<Triage> = Some(Triage {
        flagged: true,
        hardened: true,
    });

    #[test]
    fn reference_answers_pass_on_the_path_they_took() {
        // Without triage there is no annotation and no hardened path.
        assert_eq!(judge(&reference(), &answer(3, 0.75, None)), Ok(false));
        assert_eq!(
            judge(&clean_reference(), &answer(3, 0.75, CLEAN)),
            Ok(false)
        );
        assert_eq!(judge(&reference(), &answer(4, 0.5, FLAGGED)), Ok(true));
    }

    #[test]
    fn a_perturbed_verdict_fails_by_name() {
        // One ulp off in one probability is a wrong output.
        let nudged = f32::from_bits(0.75f32.to_bits() + 1);
        assert_eq!(
            judge(&clean_reference(), &answer(3, nudged, CLEAN)),
            Err("verdict differs from the deployed pipeline's")
        );
        // Triage must agree with the detector in both directions.
        assert!(judge(&clean_reference(), &answer(4, 0.5, FLAGGED)).is_err());
        assert!(judge(&reference(), &answer(3, 0.75, CLEAN)).is_err());
        // The deployed answer on a flagged request is the wrong pipeline.
        assert_eq!(
            judge(&reference(), &answer(3, 0.75, FLAGGED)),
            Err("flagged verdict differs from the hardened pipeline's")
        );
        let unhardened = Some(Triage {
            flagged: true,
            hardened: false,
        });
        assert!(judge(&reference(), &answer(4, 0.5, unhardened)).is_err());
    }

    #[test]
    fn failures_count_and_leave_no_latency_sample() {
        let mut tally = Tally::default();
        tally.record(100.0, false, Ok(false));
        tally.record(250.0, true, Ok(true));
        tally.record(9.0, false, Err("queue full: refused".into()));
        tally.record(
            120.0,
            true,
            judge(&clean_reference(), &answer(9, 0.1, CLEAN)).map_err(String::from),
        );
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(tally.latencies_us, vec![100.0, 250.0]);
        assert_eq!(tally.first_failure.as_deref(), Some("queue full: refused"));
        assert_eq!(tally.flag_rate(true), 1.0);
        assert_eq!(tally.flag_rate(false), 0.0);

        let mut total = Tally::default();
        total.merge(tally);
        assert_eq!(
            (total.attempted, total.failed, total.latencies_us.len()),
            (4, 2, 2)
        );
    }

    #[test]
    fn a_missing_or_undeclared_metric_fails_by_name() {
        let names = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        let declared = names(&["setup_s", "throughput_rps"]);
        assert!(names_match(
            "metric",
            &declared,
            &names(&["throughput_rps", "setup_s"]),
            16
        )
        .is_ok());
        let missing = names_match("metric", &declared, &names(&["setup_s"]), 16).unwrap_err();
        assert!(
            missing.contains("\"throughput_rps\" was not emitted"),
            "{missing}"
        );
        let extra = names_match(
            "metric",
            &declared,
            &names(&["setup_s", "throughput_rps", "x"]),
            16,
        );
        assert!(extra.unwrap_err().contains("not declared"));
        assert!(names_match("metric", &names(&["bad name"]), &names(&["bad name"]), 16).is_err());
        assert!(names_match("metric", &declared, &declared, 1).is_err());
    }
}

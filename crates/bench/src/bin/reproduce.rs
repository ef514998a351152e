//! Regenerates the paper's figures and the extension tables into
//! `results/`: fig5, fig6, fig7, fig9, insights, model_info, attack_zoo,
//! hump, hardening and tm2_eot, each `<name>.txt`, from the Full victim
//! (trained once and cached in the system temp directory, keyed by its
//! configuration) evaluated on its whole test split. Takes no flag and
//! reads no environment variable; two runs write the same bytes.
//!
//! ```text
//! cargo run --release -p fademl-bench --bin reproduce
//! ```

#![warn(clippy::let_underscore_must_use, clippy::unused_result_ok)]

use std::path::Path;
use std::time::Instant;

use fademl::setup::{ExperimentSetup, SetupProfile};
use fademl_tensor::io::atomic_write;

fn main() {
    let started = Instant::now();
    let setup = ExperimentSetup::profile(SetupProfile::Full);
    let prepared = setup.prepare().expect("victim setup failed");
    eprintln!(
        "[reproduce] Full victim{}: train accuracy {:.1}%, {} test images",
        if prepared.from_cache { " (cached)" } else { "" },
        prepared.train_accuracy * 100.0,
        prepared.test.len(),
    );
    let sections = fademl_bench::sections(&setup, &prepared).expect("reproduction failed");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for section in &sections {
        let path = format!("{root}/results/{}.txt", section.name);
        atomic_write(Path::new(&path), section.text.as_bytes())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    eprintln!(
        "[reproduce] wrote {} files into results/ in {:.1} s",
        sections.len(),
        started.elapsed().as_secs_f64()
    );
}

//! The offline phases: the 65,536-node exp6 field through `run_exp6`'s
//! sequential/sharded determinism oracle, and the paper-figure sweeps
//! through their public `figure*` functions.

use std::path::Path;
use std::time::Instant;

use tibfit_experiments::exp6_scale::{run_exp6_with_phases, Exp6Config, Exp6Phases};
use tibfit_experiments::report::FigureData;
use tibfit_experiments::{exp1, exp2, exp3, exp5_chaos};

/// Clusters of the big field.
pub const FIELD_CLUSTERS: usize = 1024;
/// Nodes per cluster of the big field.
pub const FIELD_NODES_PER_CLUSTER: usize = 64;

/// One `run_exp6` call: the sequential reference then the sharded
/// engine on adaptive epochs, over the same rounds.
pub struct FieldRun {
    /// Rounds each engine ran.
    pub rounds: usize,
    /// Sequential engine wall time, nanoseconds.
    pub seq_ns: f64,
    /// Sharded engine wall time, nanoseconds.
    pub par_ns: f64,
    /// Time to build one deployment (engine construction included),
    /// nanoseconds: the call's wall time outside the two timed runs,
    /// split over its two builds.
    pub build_ns: f64,
    /// The sharded cell's scheduler phase profile.
    pub phases: Exp6Phases,
}

/// Runs the big field once at `threads` sharded workers.
///
/// # Errors
///
/// A rejected configuration or a determinism-oracle violation.
pub fn field_once(seed: u64, rounds: usize, threads: usize) -> Result<FieldRun, String> {
    let cfg = Exp6Config {
        clusters: vec![FIELD_CLUSTERS],
        threads: vec![threads],
        nodes_per_cluster: FIELD_NODES_PER_CLUSTER,
        events: rounds,
        faulty_fraction: 0.25,
        seed,
        adaptive: true,
    };
    let started = Instant::now();
    let (points, phases) = run_exp6_with_phases(&cfg).map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_nanos() as f64;
    let (Some(seq), Some(par), Some(&phases)) = (
        points.iter().find(|p| p.threads == 0),
        points.iter().find(|p| p.threads == threads),
        phases.first(),
    ) else {
        return Err("run_exp6 returned no sequential or sharded cell".into());
    };
    let seq_ns = seq.elapsed_ns as f64;
    let par_ns = par.elapsed_ns as f64;
    Ok(FieldRun {
        rounds,
        seq_ns,
        par_ns,
        build_ns: (wall - seq_ns - par_ns).max(0.0) / 2.0,
        phases,
    })
}

/// Trials per figure point: the count `results/golden` was made with.
pub const FIGURE_TRIALS: usize = 2;
/// The seed `results/golden` was made with.
pub const GOLDEN_SEED: u64 = 42;

type FigureFn = fn(usize, u64) -> FigureData;

/// The paper's figure sweeps (fig2–fig9) and the exp5 chaos figure.
pub const FIGURES: [(&str, FigureFn); 9] = [
    ("fig2", exp1::figure2),
    ("fig3", exp1::figure3),
    ("fig4", exp2::figure4),
    ("fig5", exp2::figure5),
    ("fig6", exp2::figure6),
    ("fig7", exp2::figure7),
    ("fig8", exp3::figure8),
    ("fig9", exp3::figure9),
    ("exp5_chaos", exp5_chaos::figure_chaos),
];

/// One pass over every figure: per figure its wall time in
/// nanoseconds and its CSV.
#[must_use]
pub fn sweep_once(seed: u64) -> Vec<(f64, String)> {
    FIGURES
        .iter()
        .map(|(_, figure)| {
            let started = Instant::now();
            let data = figure(FIGURE_TRIALS, seed);
            let ns = started.elapsed().as_nanos() as f64;
            (ns, data.to_csv())
        })
        .collect()
}

/// Compares a sweep's CSVs with `golden_dir/<id>.csv`; returns the ids
/// that differ or are missing.
#[must_use]
pub fn golden_mismatches(sweep: &[(f64, String)], golden_dir: &Path) -> Vec<String> {
    FIGURES
        .iter()
        .zip(sweep)
        .filter(|((id, _), (_, csv))| {
            std::fs::read_to_string(golden_dir.join(format!("{id}.csv")))
                .map_or(true, |golden| &golden != csv)
        })
        .map(|((id, _), _)| (*id).to_string())
        .collect()
}

//! The all-nodes scan's pruned driving-point panels return **bitwise** the
//! numbers of the per-RHS reference path on the paper's circuits: at every
//! panel width (`LOOPSCOPE_PANEL` unset = the default width, 3, 64) each
//! `Z_nn(jω)` must equal, by `to_bits`, the one from `LOOPSCOPE_PANEL=1`,
//! which solves every injection in full on its own. The merged solver
//! counters must match too: pruning changes which substitution rows run,
//! never how often anything is factored.
//!
//! Bitwise equality is a per-point property, so the paper's 601-point grid
//! (1 kHz–1 GHz, 100 points per decade) runs on the small circuits and the
//! 257-injection power grid takes a 61-point grid of the same span, which
//! keeps the unoptimized test build quick.
//!
//! NOTE: this file sets `LOOPSCOPE_PANEL` (re-read on every scan), so it
//! holds exactly ONE `#[test]` in its own test binary: a sibling test
//! reading the environment between the set and remove calls would race.

use loopscope::circuits::blocks::{opamp_cascade, power_grid};
use loopscope::circuits::{mos_two_stage_buffer, opamp_with_bias, BiasParams, OpAmpParams};
use loopscope::math::{Complex64, FrequencyGrid};
use loopscope::netlist::Circuit;
use loopscope::spice::assembly::SolveStats;
use loopscope::spice::{par, solve_dc, AcAnalysis};

/// One all-nodes scan of `circuit` over 1 kHz–1 GHz at `per_decade` points
/// per decade and the given `LOOPSCOPE_PANEL` value (`None` = unset),
/// returning the responses and the merged counters.
fn scan(
    circuit: &Circuit,
    per_decade: usize,
    panel: Option<&str>,
) -> (Vec<Vec<Complex64>>, SolveStats) {
    match panel {
        Some(width) => std::env::set_var(par::PANEL_ENV, width),
        None => std::env::remove_var(par::PANEL_ENV),
    }
    let op = solve_dc(circuit).expect("operating point");
    let ac = AcAnalysis::new(circuit, &op).expect("AC analysis");
    let grid = FrequencyGrid::log_decade(1.0e3, 1.0e9, per_decade);
    assert_eq!(grid.freqs().len(), 6 * per_decade + 1);
    let responses = ac.driving_point_all_nodes(&grid).expect("all-nodes scan");
    (responses, ac.solve_stats())
}

#[test]
fn pruned_panels_match_the_per_rhs_reference_bitwise() {
    let circuits = [
        ("power_grid(16, 16)", power_grid(16, 16).0, 10),
        (
            "opamp_with_bias",
            opamp_with_bias(&OpAmpParams::default(), &BiasParams::default()).0,
            100,
        ),
        (
            "mos_two_stage_buffer",
            mos_two_stage_buffer(&OpAmpParams::default()).0,
            100,
        ),
        ("opamp_cascade(5)", opamp_cascade(5).0, 100),
    ];
    for (name, circuit, per_decade) in &circuits {
        let (reference, reference_stats) = scan(circuit, *per_decade, Some("1"));
        for panel in [None, Some("3"), Some("64")] {
            let (run, stats) = scan(circuit, *per_decade, panel);
            assert_eq!(
                stats, reference_stats,
                "{name}: counters diverged at LOOPSCOPE_PANEL={panel:?}"
            );
            assert_eq!(reference.len(), run.len());
            for (node, (r, p)) in reference.iter().zip(&run).enumerate() {
                for (i, (a, b)) in r.iter().zip(p).enumerate() {
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "{name}: node {node}, point {i}: {a:?} != {b:?} at \
                         LOOPSCOPE_PANEL={panel:?}"
                    );
                }
            }
        }
    }
    std::env::remove_var(par::PANEL_ENV);
}

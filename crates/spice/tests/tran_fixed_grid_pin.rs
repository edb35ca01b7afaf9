//! Bitwise pin of the **fixed-grid** transient schedule
//! (`TransientOptions::new`, `dt_min == dt_max`).
//!
//! Each case reduces one run to three FNV-1a 64-bit digests over raw
//! `f64::to_bits` patterns: the time grid, every node waveform (ground
//! included) and every [`TransientStats`] field (solver counters included).
//! The expected digests were recorded from the fixed-grid stepper and must
//! never move: the fixed grid is the transient-overshoot baseline the
//! stability plot is compared against, so any change to its step targets,
//! step widths, integration method per step, source evaluation or counters
//! shows up here bit for bit.
//!
//! Only circuits whose stamps are plain IEEE arithmetic are used (R/L/C,
//! controlled sources, STEP/PULSE sources; no `exp`/`sin` device or source
//! models), so the digests do not depend on the platform's libm.
//!
//! NOTE: the solver backend is pinned to `direct` through the environment
//! (the iterative backend is deterministic but not bitwise equal to the
//! direct one), so this binary holds exactly ONE `#[test]`: a sibling test
//! reading the environment concurrently would be racy.

use loopscope_netlist::{Circuit, NodeId, SourceSpec, Waveform};
use loopscope_spice::dc::solve_dc;
use loopscope_spice::tran::{Integration, TransientAnalysis, TransientOptions, TransientStats};

/// FNV-1a over the little-endian bytes of 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// `(times, waveforms, stats)` digests of one fixed-grid run.
fn digest(c: &Circuit, opts: TransientOptions) -> [u64; 3] {
    assert!(!opts.is_adaptive());
    let op = solve_dc(c).unwrap();
    let r = TransientAnalysis::new(c, opts).unwrap().run(&op).unwrap();

    let mut times = Fnv::new();
    times.word(r.len() as u64);
    r.times().iter().for_each(|&t| times.float(t));

    let mut waves = Fnv::new();
    for i in 0..c.node_count() {
        for v in r.waveform(NodeId::from_index(i)).unwrap() {
            waves.float(v);
        }
    }

    let s: &TransientStats = r.stats();
    let mut stats = Fnv::new();
    for n in [
        s.accepted_steps,
        s.rejected_steps,
        s.forced_accepts,
        s.newton_iterations,
        s.breakpoints_hit,
        s.solve.symbolic,
        s.solve.numeric_refactor,
        s.solve.fresh_fallback,
        s.solve.pattern_rebuilds,
        s.solve.cached_assemblies,
        s.solve.residual_retries,
        s.solve.gmin_bumps,
        s.solve.iterative_solves,
        s.solve.gmres_iterations,
        s.solve.preconditioner_refreshes,
        s.solve.iterative_fallbacks,
    ] {
        stats.word(n as u64);
    }
    stats.float(s.min_dt);
    stats.float(s.max_dt);

    [times.0, waves.0, stats.0]
}

/// Step 0 → 1 V through 1 kΩ into `farads`.
fn rc(farads: f64) -> Circuit {
    let mut c = Circuit::new("rc charge");
    let vin = c.node("in");
    let out = c.node("out");
    c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
    c.add_resistor("R1", vin, out, 1.0e3);
    c.add_capacitor("C1", out, Circuit::GROUND, farads);
    c
}

/// Source steps 1 → 0 V: the inductor current seeded from the operating
/// point decays through R with τ = L/R = 100 µs.
fn rl_decay() -> Circuit {
    let mut c = Circuit::new("rl decay");
    let vin = c.node("in");
    let mid = c.node("mid");
    c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(1.0, 0.0, 0.0));
    c.add_resistor("R1", vin, mid, 100.0);
    c.add_inductor("L1", mid, Circuit::GROUND, 10.0e-3);
    c
}

/// A lightly damped series RLC driven through every controlled-source
/// kind: VCVS buffer, CCVS sense, VCCS load and CCCS mirror.
fn rlc_ring() -> Circuit {
    let mut c = Circuit::new("rlc ring");
    let vin = c.node("in");
    let buf = c.node("buf");
    let sense = c.node("sense");
    let mid = c.node("mid");
    let out = c.node("out");
    let mirror = c.node("mirror");
    c.add_vsource("V1", vin, Circuit::GROUND, SourceSpec::step(0.0, 1.0, 0.0));
    c.add_vcvs("E1", buf, Circuit::GROUND, vin, Circuit::GROUND, 2.0);
    c.add_vsource("Vsense", buf, sense, SourceSpec::dc(0.0));
    c.add_resistor("R1", sense, mid, 5.0);
    c.add_inductor("L1", mid, out, 1.0e-3);
    c.add_capacitor("C1", out, Circuit::GROUND, 1.0e-9);
    c.add_vccs("G1", out, Circuit::GROUND, out, Circuit::GROUND, 1.0e-6);
    c.add_cccs("F1", Circuit::GROUND, mirror, "Vsense", 0.5);
    c.add_resistor("Rm", mirror, Circuit::GROUND, 1.0e3);
    let probe = c.node("probe");
    c.add_ccvs("H1", probe, Circuit::GROUND, "Vsense", 10.0);
    c.add_resistor("Rp", probe, Circuit::GROUND, 1.0e3);
    c
}

/// A PULSE with edges between grid points: a zero-rise edge at 2.5 µs, a
/// 0.3 µs linear fall starting at 5.75 µs. On a 1 µs grid neither edge
/// is a sample time.
fn pulse_off_grid() -> Circuit {
    let mut c = Circuit::new("pulse off grid");
    let vin = c.node("in");
    let out = c.node("out");
    let spec = SourceSpec {
        dc: 0.0,
        ac_mag: 0.0,
        ac_phase_deg: 0.0,
        waveform: Waveform::Pulse {
            initial: 0.0,
            pulsed: 1.0,
            delay: 2.5e-6,
            rise: 0.0,
            fall: 0.3e-6,
            width: 3.25e-6,
        },
    };
    c.add_vsource("V1", vin, Circuit::GROUND, spec);
    c.add_resistor("R1", vin, out, 1.0e3);
    c.add_capacitor("C1", out, Circuit::GROUND, 1.0e-9);
    c
}

#[test]
fn fixed_grid_is_bitwise_pinned() {
    std::env::set_var("LOOPSCOPE_SOLVER", "direct");

    let cases: Vec<(&str, Circuit, TransientOptions)> = vec![
        (
            "rc charge, backward Euler",
            rc(1.0e-6),
            TransientOptions {
                method: Integration::BackwardEuler,
                ..TransientOptions::new(10.0e-6, 2.0e-3)
            },
        ),
        (
            "rc charge, trapezoidal",
            rc(1.0e-6),
            TransientOptions::new(10.0e-6, 2.0e-3),
        ),
        (
            "rl decay",
            rl_decay(),
            TransientOptions::new(2.0e-6, 500.0e-6),
        ),
        (
            "rlc ring",
            rlc_ring(),
            TransientOptions::new(20.0e-9, 40.0e-6),
        ),
        (
            "non-multiple grid 3e-6/10e-6",
            rc(3.0e-9),
            TransientOptions::new(3.0e-6, 10.0e-6),
        ),
        (
            "non-multiple grid 0.4/1.0",
            rc(3.0e-4),
            TransientOptions::new(0.4, 1.0),
        ),
        (
            "non-multiple grid 7e-7/9.1e-6",
            rc(3.0e-9),
            TransientOptions::new(7.0e-7, 9.1e-6),
        ),
        (
            "single step",
            rc(1.0e-9),
            TransientOptions::new(2.0e-6, 2.0e-6),
        ),
        (
            "pulse edges off grid",
            pulse_off_grid(),
            TransientOptions::new(1.0e-6, 10.0e-6),
        ),
    ];

    /// `(times, waveforms, stats)` digests per case, in order.
    const EXPECTED: [[u64; 3]; 9] = [
        // rc charge, backward Euler
        [
            0xeaab_8567_00ef_dac1,
            0xbe1c_f57a_89e9_9318,
            0xe520_aff7_3215_986e,
        ],
        // rc charge, trapezoidal
        [
            0xeaab_8567_00ef_dac1,
            0x4207_4f81_ef40_7295,
            0xe520_aff7_3215_986e,
        ],
        // rl decay
        [
            0x9368_1bb3_1270_4e97,
            0x3ff9_f516_6ab7_d85d,
            0x2606_29c4_5f38_86e8,
        ],
        // rlc ring
        [
            0xabfe_e6b0_190c_06b5,
            0xca99_1c9e_ad63_e48c,
            0xd696_ab04_128e_fd26,
        ],
        // non-multiple grid 3e-6/10e-6
        [
            0x79f0_10a4_f21e_d108,
            0x7010_2542_4cdf_51f5,
            0x2a71_3b18_1dfa_281c,
        ],
        // non-multiple grid 0.4/1.0
        [
            0x75aa_aeb8_467c_3ef8,
            0x4359_ad24_588d_d2f2,
            0xc4fb_0cb7_6288_6e42,
        ],
        // non-multiple grid 7e-7/9.1e-6
        [
            0x9cc6_fcfe_101b_31c2,
            0x84b3_db98_284f_63a5,
            0x738a_2d5b_8527_e6fb,
        ],
        // single step
        [
            0x6336_0ddf_6e41_9223,
            0x033c_ad82_d969_12aa,
            0x4278_a290_ccdb_e1fc,
        ],
        // pulse edges off grid
        [
            0x59f9_f327_2135_373f,
            0x40cf_6551_a062_e8a4,
            0x0db0_04d0_d8bb_83ed,
        ],
    ];

    let mut mismatches = Vec::new();
    for ((name, c, opts), want) in cases.iter().zip(EXPECTED) {
        let got = digest(c, *opts);
        if got != want {
            mismatches.push(format!(
                "{name}: got [{:#018x}, {:#018x}, {:#018x}]",
                got[0], got[1], got[2]
            ));
        }
    }

    std::env::remove_var("LOOPSCOPE_SOLVER");
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));

    // The fixed grid never snaps to a source edge: the off-grid PULSE run
    // samples exactly k·1 µs and reports no breakpoint landing.
    let pulse = pulse_off_grid();
    let op = solve_dc(&pulse).unwrap();
    let r = TransientAnalysis::new(&pulse, TransientOptions::new(1.0e-6, 10.0e-6))
        .unwrap()
        .run(&op)
        .unwrap();
    let mut grid: Vec<f64> = (0..10).map(|k| k as f64 * 1.0e-6).collect();
    grid.push(10.0e-6);
    assert_eq!(r.times(), &grid[..]);
    assert_eq!(r.stats().breakpoints_hit, 0);
}

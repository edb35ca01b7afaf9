//! The four workloads: seeded inputs, the user-level request, the same
//! request composed from the layers' public calls under spans, output checks
//! and ζ references.
//!
//! Inputs come only from `loopscope_circuits` builders and
//! [`ParameterVariation::apply`]; the library sees nothing but the generated
//! circuits.

use crate::trace::Tracer;
use loopscope_circuits::{mos_two_stage_buffer, opamp_with_bias, power_grid};
use loopscope_circuits::{BiasParams, OpAmpParams};
use loopscope_core::baseline::{damping_from_overshoot, transient_overshoot, OvershootResult};
use loopscope_core::{sweep_node, AllNodesReport, NodeStabilityResult, NodeSweep};
use loopscope_core::{StabilityAnalyzer, StabilityOptions, StabilityPlot, SweepPoint};
use loopscope_math::{Complex64, SecondOrder};
use loopscope_netlist::{Circuit, NodeId};
use loopscope_spice::ac::AcAnalysis;
use loopscope_spice::batch::{driving_point_batch, BatchVariant, ParameterVariation};
use loopscope_spice::dc::{solve_dc, DcPhase, OperatingPoint};
use loopscope_spice::measure::{overshoot_percent, settled_value};
use loopscope_spice::tran::{TransientAnalysis, TransientOptions, TransientResult};
use loopscope_spice::SolveStats;
use std::collections::BTreeMap;

/// Work counters of one request, keyed by metric-style names.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts(pub BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `v` to counter `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    /// Counter `key`, 0 when never added.
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    fn add_dc(&mut self, op: &OperatingPoint) {
        let stages = op.convergence().stages();
        let escalations = stages.iter().filter(|s| s.phase != DcPhase::Newton).count();
        self.add("dc.newton_iters", op.iterations() as f64);
        self.add("dc.escalations", escalations as f64);
    }

    fn add_solve(&mut self, s: &SolveStats) {
        self.add("sparse.symbolic", s.symbolic as f64);
        self.add("sparse.numeric_refactor", s.numeric_refactor as f64);
        self.add("sparse.fresh_fallback", s.fresh_fallback as f64);
        self.add("sparse.residual_retries", s.residual_retries as f64);
        self.add("sparse.gmin_bumps", s.gmin_bumps as f64);
        self.add("sparse.iterative_solves", s.iterative_solves as f64);
    }
}

/// One benchmark workload: a pool of seeded inputs and the request run on them.
pub trait Workload: Sized {
    /// Name given to `--workload`.
    const NAME: &'static str;
    /// Set-ups an untraced run makes; it reports their median.
    const SETUP_REPS: usize;
    /// Whether a request keeps every core busy (the library's worker pool)
    /// rather than one thread.
    const PARALLEL: bool;
    /// One request's owned input.
    type Input;
    /// What a request returns.
    type Output;
    /// A ζ reference for one pool entry.
    type Reference;

    /// Builds the input pool from the seed.
    fn generate(seed: u64) -> Result<Self, String>;
    /// Number of distinct inputs; request `i` uses entry `i % pool_len()`.
    fn pool_len(&self) -> usize;
    /// Owned input of request `i`, made outside every timed region.
    fn input(&self, i: usize) -> Self::Input;
    /// The user-level request.
    fn run(&self, input: Self::Input) -> Result<Self::Output, String>;
    /// The same request composed from the layers' public calls, one span per call.
    fn run_traced(
        &self,
        input: Self::Input,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<Self::Output, String>;
    /// Whether the composed and the user-level result agree.
    fn same(a: &Self::Output, b: &Self::Output) -> bool;
    /// ζ reference of pool entry `i`, `None` when `i` is outside the subset.
    fn reference(&self, i: usize) -> Option<Result<Self::Reference, String>>;
    /// Checks one output; returns its worst ζ error, in percent of the
    /// reference, when a reference was given. The ζ error is measured, not
    /// checked: it depends on the grid density the workload asks for.
    fn check(
        &self,
        out: &Self::Output,
        reference: Option<&Self::Reference>,
    ) -> Result<Option<f64>, String>;
    /// A circuit of the workload, for provenance only.
    fn probe(&self) -> Circuit;
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn vary(base: &Circuit, var: &ParameterVariation, index: usize) -> Result<Circuit, String> {
    let mut c = base.clone();
    var.apply(index, &mut c).map_err(err)?;
    Ok(c)
}

/// Builds a stability plot from a driving-point response. This copies the
/// private floor of `StabilityAnalyzer::plot_from_response` in
/// `loopscope_core::analysis`: magnitudes are clamped to `1e-15·max` (at
/// least `1e-30`), so nodes pinned by ideal sources still give a defined plot.
fn plot_from_response(freqs: &[f64], response: &[Complex64]) -> StabilityPlot {
    let mags: Vec<f64> = response.iter().map(|v| v.abs()).collect();
    let max = mags.iter().cloned().fold(0.0f64, f64::max);
    let floor = (max * 1.0e-15).max(1.0e-30);
    let clamped: Vec<f64> = mags.into_iter().map(|m| m.max(floor)).collect();
    StabilityPlot::from_magnitude(freqs.to_vec(), clamped)
}

/// `StabilityAnalyzer::new` + `all_nodes()`.
fn all_nodes(circuit: Circuit, options: StabilityOptions) -> Result<AllNodesReport, String> {
    StabilityAnalyzer::new(circuit, options)
        .and_then(|a| a.all_nodes())
        .map_err(err)
}

/// [`all_nodes`] composed from the layer calls it is made of.
fn all_nodes_traced(
    mut circuit: Circuit,
    options: StabilityOptions,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<AllNodesReport, String> {
    if options.zero_existing_ac {
        tr.span("netlist.zero_ac", |_| circuit.zero_ac_sources());
    }
    let op = tr.span("dc", |_| solve_dc(&circuit)).map_err(err)?;
    counts.add_dc(&op);
    let grid = options.grid();
    let ac = tr
        .span("ac.new", |_| AcAnalysis::new(&circuit, &op))
        .map_err(err)?;
    let responses = tr
        .span("ac.sweep", |_| ac.driving_point_all_nodes(&grid))
        .map_err(err)?;
    counts.add_solve(&ac.solve_stats());
    let nodes = circuit.signal_nodes();
    counts.add("ac.points", grid.len() as f64);
    counts.add("ac.rhs_points", (grid.len() * nodes.len()) as f64);
    counts.add("post.nodes", nodes.len() as f64);
    let report = tr.span("post", |tr| {
        let plots: Vec<StabilityPlot> = tr.span("post.plot", |_| {
            responses
                .iter()
                .map(|r| plot_from_response(grid.freqs(), r))
                .collect()
        });
        let entries: Vec<NodeStabilityResult> = tr.span("post.result", |_| {
            nodes
                .iter()
                .zip(plots)
                .map(|(&n, plot)| {
                    NodeStabilityResult::from_plot(
                        n,
                        circuit.node_name(n),
                        plot,
                        options.peak_threshold,
                    )
                })
                .collect()
        });
        tr.span("post.report", |_| {
            AllNodesReport::new(entries, options.group_tolerance)
        })
    });
    let peaks = report.entries().iter().filter(|e| e.peak.is_some()).count();
    counts.add("post.peaks", peaks as f64);
    counts.add("post.loops", report.loops().len() as f64);
    Ok(report)
}

fn same_report(a: &AllNodesReport, b: &AllNodesReport) -> bool {
    a.loops() == b.loops()
        && a.entries().len() == b.entries().len()
        && a.entries().iter().zip(b.entries()).all(|(x, y)| {
            x.node == y.node && x.peak == y.peak && x.estimate == y.estimate && x.plot == y.plot
        })
}

/// ζ of the loop a report sees in `[lo, hi)` Hz: its most under-damped group there.
fn loop_zeta(report: &AllNodesReport, lo: f64, hi: f64) -> Option<f64> {
    report
        .loops()
        .iter()
        .filter(|g| g.natural_freq_hz >= lo && g.natural_freq_hz < hi)
        .min_by(|a, b| {
            a.worst_performance_index
                .total_cmp(&b.worst_performance_index)
        })
        .and_then(|g| {
            SecondOrder::from_performance_index(g.worst_performance_index, g.natural_freq_hz)
        })
        .map(|s| s.damping_ratio())
}

fn rel_err_pct(value: f64, reference: f64) -> f64 {
    100.0 * (value - reference).abs() / reference.abs()
}

// --------------------------------------------------------------------------
// table2_allnodes
// --------------------------------------------------------------------------

/// Band of the op-amp's main loop (paper Table 2, ≈3.3 MHz nominal).
pub const MAIN_LOOP_HZ: (f64, f64) = (1.0e6, 6.0e6);
/// Band of the bias cell's local loop (tens of MHz).
pub const BIAS_LOOP_HZ: (f64, f64) = (1.0e7, 1.0e8);

/// "All Nodes" on seeded compensation variants of `opamp_with_bias`.
pub struct Table2 {
    pool: Vec<Circuit>,
    options: StabilityOptions,
}

impl Table2 {
    const POOL: usize = 32;
    /// Pool entries with a ζ reference.
    const REFERENCED: usize = 8;
    /// Reference density: 20 times the request's 100 points per decade.
    const REFERENCE_PPD: usize = 2000;
}

impl Workload for Table2 {
    const NAME: &'static str = "table2_allnodes";
    const SETUP_REPS: usize = 15;
    const PARALLEL: bool = true;
    type Input = Circuit;
    type Output = AllNodesReport;
    type Reference = (f64, f64);

    fn generate(seed: u64) -> Result<Self, String> {
        let (base, _, _) = opamp_with_bias(&OpAmpParams::default(), &BiasParams::default());
        let var = ParameterVariation::new(seed)
            .uniform("Cload", 0.2)
            .uniform("Rzero", 0.25)
            .uniform("C1", 0.15)
            .uniform("bias_Cout", 0.2);
        let pool = (0..Self::POOL)
            .map(|i| vary(&base, &var, i))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            pool,
            options: StabilityOptions::default(),
        })
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn input(&self, i: usize) -> Circuit {
        self.pool[i % self.pool.len()].clone()
    }

    fn run(&self, input: Circuit) -> Result<AllNodesReport, String> {
        all_nodes(input, self.options)
    }

    fn run_traced(
        &self,
        input: Circuit,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<AllNodesReport, String> {
        all_nodes_traced(input, self.options, tr, counts)
    }

    fn same(a: &AllNodesReport, b: &AllNodesReport) -> bool {
        same_report(a, b)
    }

    fn reference(&self, i: usize) -> Option<Result<(f64, f64), String>> {
        if i >= Self::REFERENCED {
            return None;
        }
        let options = StabilityOptions {
            points_per_decade: Self::REFERENCE_PPD,
            ..self.options
        };
        Some(all_nodes(self.pool[i].clone(), options).and_then(|r| {
            let main = loop_zeta(&r, MAIN_LOOP_HZ.0, MAIN_LOOP_HZ.1);
            let bias = loop_zeta(&r, BIAS_LOOP_HZ.0, BIAS_LOOP_HZ.1);
            main.zip(bias)
                .ok_or_else(|| "reference sweep lacks the main or the bias loop".to_string())
        }))
    }

    fn check(
        &self,
        out: &AllNodesReport,
        reference: Option<&(f64, f64)>,
    ) -> Result<Option<f64>, String> {
        let main = loop_zeta(out, MAIN_LOOP_HZ.0, MAIN_LOOP_HZ.1)
            .ok_or("no loop in the 1-6 MHz main-loop band")?;
        let bias = loop_zeta(out, BIAS_LOOP_HZ.0, BIAS_LOOP_HZ.1)
            .ok_or("no loop in the 10-100 MHz bias-loop band")?;
        let Some(&(main_ref, bias_ref)) = reference else {
            return Ok(None);
        };
        Ok(Some(
            rel_err_pct(main, main_ref).max(rel_err_pct(bias, bias_ref)),
        ))
    }

    fn probe(&self) -> Circuit {
        self.pool[0].clone()
    }
}

// --------------------------------------------------------------------------
// grid_allnodes
// --------------------------------------------------------------------------

/// "All Nodes" on a 16×16 RC power grid with seeded element values. The
/// grid is sized so a request takes about 0.1 s: a run then holds well over
/// 100 requests, and the speed calibration around each request follows the
/// host's drift.
pub struct Grid {
    pool: Vec<Circuit>,
    options: StabilityOptions,
}

impl Grid {
    const SIDE: usize = 16;
    const POOL: usize = 3;
}

impl Workload for Grid {
    const NAME: &'static str = "grid_allnodes";
    const SETUP_REPS: usize = 9;
    const PARALLEL: bool = true;
    type Input = Circuit;
    type Output = AllNodesReport;
    type Reference = ();

    fn generate(seed: u64) -> Result<Self, String> {
        let (base, _) = power_grid(Self::SIDE, Self::SIDE);
        let mut var = ParameterVariation::new(seed).uniform("Rdrive", 0.2);
        for i in 0..Self::SIDE {
            for j in 0..Self::SIDE {
                var = var.gaussian(&format!("C{i}_{j}"), 0.05);
            }
        }
        let pool = (0..Self::POOL)
            .map(|i| vary(&base, &var, i))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            pool,
            options: StabilityOptions {
                f_start: 1.0e3,
                f_stop: 1.0e8,
                points_per_decade: 20,
                ..StabilityOptions::default()
            },
        })
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn input(&self, i: usize) -> Circuit {
        self.pool[i % self.pool.len()].clone()
    }

    fn run(&self, input: Circuit) -> Result<AllNodesReport, String> {
        all_nodes(input, self.options)
    }

    fn run_traced(
        &self,
        input: Circuit,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<AllNodesReport, String> {
        all_nodes_traced(input, self.options, tr, counts)
    }

    fn same(a: &AllNodesReport, b: &AllNodesReport) -> bool {
        same_report(a, b)
    }

    fn reference(&self, _i: usize) -> Option<Result<(), String>> {
        None
    }

    fn check(&self, out: &AllNodesReport, _: Option<&()>) -> Result<Option<f64>, String> {
        if !out.loops().is_empty() {
            return Err(format!(
                "an RC grid has only real poles, yet {} loop(s) were reported",
                out.loops().len()
            ));
        }
        let finite = out.entries().iter().all(|e| {
            e.plot.magnitude().iter().all(|m| m.is_finite() && *m > 0.0)
                && e.plot.values().iter().all(|v| v.is_finite())
        });
        if !finite {
            return Err("non-finite driving-point response".to_string());
        }
        Ok(None)
    }

    fn probe(&self) -> Circuit {
        self.pool[0].clone()
    }
}

// --------------------------------------------------------------------------
// corner_sweep
// --------------------------------------------------------------------------

/// `sweep_node` over seeded corners of the transistor-level buffer.
pub struct Corners {
    base: Circuit,
    var: ParameterVariation,
    options: StabilityOptions,
}

impl Corners {
    /// Distinct requests; request `r` sweeps variants `r·VARIANTS ..`.
    const REQUESTS: usize = 4;
    const VARIANTS: usize = 256;
    const NODE: &'static str = "out";
    /// Variants of request 0 with a ζ reference.
    const REFERENCED: usize = 32;
    /// Reference density: 20 times the request's 20 points per decade.
    const REFERENCE_PPD: usize = 400;

    fn variants(&self, request: usize, count: usize) -> Vec<(String, Circuit)> {
        (0..count)
            .map(|v| {
                let index = request * Self::VARIANTS + v;
                let circuit =
                    vary(&self.base, &self.var, index).expect("rules name existing elements");
                (format!("corner{index}"), circuit)
            })
            .collect()
    }
}

/// Zeroes AC stimuli and solves the operating point of every variant, split
/// across the machine's threads as `sweep_node` does.
fn prepare_variants(
    variants: Vec<(String, Circuit)>,
    zero_ac: bool,
) -> Vec<Result<(String, Circuit, OperatingPoint), String>> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = variants.len().div_ceil(workers).max(1);
    let mut chunks: Vec<Vec<(String, Circuit)>> = Vec::new();
    let mut rest = variants.into_iter().peekable();
    while rest.peek().is_some() {
        chunks.push(rest.by_ref().take(chunk).collect());
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .into_iter()
                        .map(|(label, mut c)| {
                            if zero_ac {
                                c.zero_ac_sources();
                            }
                            let op = solve_dc(&c).map_err(err)?;
                            Ok((label, c, op))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("operating-point worker panicked"))
            .collect()
    })
}

impl Workload for Corners {
    const NAME: &'static str = "corner_sweep";
    const SETUP_REPS: usize = 15;
    const PARALLEL: bool = true;
    type Input = Vec<(String, Circuit)>;
    type Output = NodeSweep;
    type Reference = Vec<f64>;

    fn generate(seed: u64) -> Result<Self, String> {
        let (base, _) = mos_two_stage_buffer(&OpAmpParams::default());
        let var = ParameterVariation::new(seed)
            .gaussian("Rzero", 0.1)
            .gaussian("Cload", 0.1)
            .uniform("C1", 0.2);
        // Resolve every rule once, so `input` cannot fail later.
        vary(&base, &var, 0)?;
        Ok(Self {
            base,
            var,
            options: StabilityOptions {
                points_per_decade: 20,
                ..StabilityOptions::default()
            },
        })
    }

    fn pool_len(&self) -> usize {
        Self::REQUESTS
    }

    fn input(&self, i: usize) -> Self::Input {
        self.variants(i % Self::REQUESTS, Self::VARIANTS)
    }

    fn run(&self, input: Self::Input) -> Result<NodeSweep, String> {
        sweep_node(input, Self::NODE, self.options).map_err(err)
    }

    fn run_traced(
        &self,
        input: Self::Input,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<NodeSweep, String> {
        let options = self.options;
        let prepared = tr.span("dc", |_| prepare_variants(input, options.zero_existing_ac));
        let prepared = prepared.into_iter().collect::<Result<Vec<_>, _>>()?;
        for (_, _, op) in &prepared {
            counts.add_dc(op);
        }
        let node: NodeId = prepared[0]
            .1
            .find_node(Self::NODE)
            .ok_or("probe node missing")?;
        let batch: Vec<BatchVariant<'_>> = prepared
            .iter()
            .map(|(label, circuit, op)| BatchVariant { label, circuit, op })
            .collect();
        let grid = options.grid();
        let sweep = tr
            .span("batch", |_| driving_point_batch(&batch, node, &grid))
            .map_err(err)?;
        counts.add_solve(&sweep.solve_stats());
        counts.add("batch.variant_points", (batch.len() * grid.len()) as f64);
        counts.add("batch.yield_frac", sweep.yield_fraction());
        counts.add("post.nodes", batch.len() as f64);
        let points = tr.span("post", |_| {
            prepared
                .iter()
                .zip(sweep.outcomes())
                .map(|((label, circuit, _), outcome)| {
                    if let Some(e) = &outcome.error {
                        return Err(err(e));
                    }
                    let response = outcome.response.as_ref().ok_or("no response")?;
                    let plot = plot_from_response(grid.freqs(), response);
                    let result = NodeStabilityResult::from_plot(
                        node,
                        circuit.node_name(node),
                        plot,
                        options.peak_threshold,
                    );
                    Ok(SweepPoint {
                        label: label.clone(),
                        estimate: result.estimate,
                    })
                })
                .collect::<Result<Vec<_>, String>>()
        })?;
        let estimates = points.iter().filter(|p| p.estimate.is_some()).count();
        counts.add("post.peaks", estimates as f64);
        counts.add("post.loops", estimates as f64);
        Ok(NodeSweep {
            node_name: Self::NODE.to_string(),
            points,
        })
    }

    fn same(a: &NodeSweep, b: &NodeSweep) -> bool {
        a.node_name == b.node_name
            && a.points.len() == b.points.len()
            && a.points
                .iter()
                .zip(&b.points)
                .all(|(x, y)| x.label == y.label && x.estimate == y.estimate)
    }

    fn reference(&self, i: usize) -> Option<Result<Vec<f64>, String>> {
        if i != 0 {
            return None;
        }
        let options = StabilityOptions {
            points_per_decade: Self::REFERENCE_PPD,
            ..self.options
        };
        let sweep = sweep_node(self.variants(0, Self::REFERENCED), Self::NODE, options);
        Some(sweep.map_err(err).and_then(|s| {
            s.points
                .iter()
                .map(|p| {
                    p.estimate
                        .map(|e| e.damping_ratio)
                        .ok_or_else(|| format!("reference of {} has no loop", p.label))
                })
                .collect()
        }))
    }

    fn check(&self, out: &NodeSweep, reference: Option<&Vec<f64>>) -> Result<Option<f64>, String> {
        if out.points.len() != Self::VARIANTS {
            return Err(format!(
                "{} of {} corners returned",
                out.points.len(),
                Self::VARIANTS
            ));
        }
        if let Some(p) = out.points.iter().find(|p| p.estimate.is_none()) {
            return Err(format!("corner {} has no loop estimate", p.label));
        }
        let Some(reference) = reference else {
            return Ok(None);
        };
        let worst = out
            .points
            .iter()
            .zip(reference)
            .map(|(p, &z)| rel_err_pct(p.estimate.expect("checked above").damping_ratio, z))
            .fold(0.0, f64::max);
        Ok(Some(worst))
    }

    fn probe(&self) -> Circuit {
        self.base.clone()
    }
}

// --------------------------------------------------------------------------
// tran_baseline
// --------------------------------------------------------------------------

/// Largest gap between the fixed-grid and the adaptive overshoot, in
/// percentage points.
pub const OVERSHOOT_AGREEMENT_PP: f64 = 1.0;

/// The two overshoot measurements of one step response.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranOutput {
    /// `transient_overshoot` on the fixed 2 ns grid.
    pub fixed: OvershootResult,
    /// The same measurement on the adaptive stepper's waveform.
    pub adaptive: OvershootResult,
}

/// Transient step-overshoot baseline on seeded MOS-buffer variants.
pub struct Tran {
    pool: Vec<Circuit>,
}

impl Tran {
    const POOL: usize = 16;
    const NODE: &'static str = "out";
    const DT: f64 = 2.0e-9;
    const T_STOP: f64 = 8.0e-6;

    fn adaptive_options() -> TransientOptions {
        TransientOptions::adaptive(1.0e-12, 2.0e-8, Self::T_STOP)
    }
}

/// The overshoot measurement `transient_overshoot` makes, on any waveform.
fn overshoot_of(result: &TransientResult, node: NodeId) -> Result<OvershootResult, String> {
    let wave = result.waveform(node).map_err(err)?;
    let initial = wave.first().copied().unwrap_or(0.0);
    let final_value = settled_value(&wave, 0.05);
    let percent = overshoot_percent(&wave, initial, final_value);
    Ok(OvershootResult {
        percent_overshoot: percent,
        equivalent_damping: damping_from_overshoot(percent),
        initial_value: initial,
        final_value,
    })
}

fn out_node(c: &Circuit) -> Result<NodeId, String> {
    c.find_node(Tran::NODE)
        .ok_or_else(|| "output node missing".to_string())
}

impl Workload for Tran {
    const NAME: &'static str = "tran_baseline";
    const SETUP_REPS: usize = 15;
    const PARALLEL: bool = false;
    type Input = Circuit;
    type Output = TranOutput;
    type Reference = ();

    fn generate(seed: u64) -> Result<Self, String> {
        let (base, _) = mos_two_stage_buffer(&OpAmpParams::default());
        let var = ParameterVariation::new(seed)
            .gaussian("Cload", 0.1)
            .gaussian("Rzero", 0.1)
            .uniform("C1", 0.1);
        let pool = (0..Self::POOL)
            .map(|i| vary(&base, &var, i))
            .collect::<Result<_, _>>()?;
        Ok(Self { pool })
    }

    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn input(&self, i: usize) -> Circuit {
        self.pool[i % self.pool.len()].clone()
    }

    fn run(&self, c: Circuit) -> Result<TranOutput, String> {
        let node = out_node(&c)?;
        let fixed = transient_overshoot(&c, node, Self::DT, Self::T_STOP).map_err(err)?;
        let op = solve_dc(&c).map_err(err)?;
        let result = TransientAnalysis::new(&c, Self::adaptive_options())
            .and_then(|t| t.run(&op))
            .map_err(err)?;
        let adaptive = overshoot_of(&result, node)?;
        Ok(TranOutput { fixed, adaptive })
    }

    fn run_traced(
        &self,
        c: Circuit,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> Result<TranOutput, String> {
        let node = out_node(&c)?;
        // Two operating points, as the two user-level calls each solve one.
        let mut stepper = |name: &'static str, options: TransientOptions, tr: &mut Tracer| {
            let op = tr.span("dc", |_| solve_dc(&c)).map_err(err)?;
            counts.add_dc(&op);
            let result = tr
                .span(name, |_| {
                    TransientAnalysis::new(&c, options).and_then(|t| t.run(&op))
                })
                .map_err(err)?;
            let stats = *result.stats();
            counts.add_solve(&stats.solve);
            counts.add("tran.accepted_steps", stats.accepted_steps as f64);
            counts.add("tran.rejected_steps", stats.rejected_steps as f64);
            counts.add("tran.newton_iters", stats.newton_iterations as f64);
            if options.is_adaptive() {
                counts.add("tran.adaptive.accepted", stats.accepted_steps as f64);
                counts.add("tran.adaptive.rejected", stats.rejected_steps as f64);
            }
            overshoot_of(&result, node)
        };
        let fixed = stepper(
            "tran.fixed",
            TransientOptions::new(Self::DT, Self::T_STOP),
            tr,
        )?;
        let adaptive = stepper("tran.adaptive", Self::adaptive_options(), tr)?;
        Ok(TranOutput { fixed, adaptive })
    }

    fn same(a: &TranOutput, b: &TranOutput) -> bool {
        a == b
    }

    fn reference(&self, _i: usize) -> Option<Result<(), String>> {
        None
    }

    fn check(&self, out: &TranOutput, _: Option<&()>) -> Result<Option<f64>, String> {
        let gap = (out.fixed.percent_overshoot - out.adaptive.percent_overshoot).abs();
        if gap.is_nan() || gap > OVERSHOOT_AGREEMENT_PP {
            return Err(format!(
                "fixed {:.3} % and adaptive {:.3} % overshoot differ by {gap:.3} pp",
                out.fixed.percent_overshoot, out.adaptive.percent_overshoot
            ));
        }
        if out.fixed.percent_overshoot.is_nan() || out.fixed.percent_overshoot <= 0.0 {
            return Err("the step response shows no overshoot".to_string());
        }
        Ok(None)
    }

    fn probe(&self) -> Circuit {
        self.pool[0].clone()
    }
}

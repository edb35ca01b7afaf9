//! loopbench: end-to-end and per-layer benchmark of the loopscope stability
//! tool.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path loopbench/Cargo.toml -- \
//!     --workload table2_allnodes --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client runs a closed loop: it makes the next request only after the
//! previous one returned. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` a separate run whose requests are composed from the layers'
//! public calls under spans, giving the per-layer split. The last line of
//! standard output is the JSON result; the line before it holds run details
//! (sample counts, failure share, ζ error, provenance). See `README.md`.

mod calib;
mod stats;
mod trace;
mod workloads;

use calib::{Clock, Timing};
use stats::{median, quantile};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workloads::{Corners, Counts, Grid, Table2, Tran, Workload};

/// Names accepted by `--workload`.
const WORKLOADS: [&str; 4] = [Table2::NAME, Grid::NAME, Corners::NAME, Tran::NAME];

/// Requests at the start of a traced run whose counters are reported; the
/// traced run always completes them, so the counters repeat exactly.
const COUNTER_WINDOW: usize = 4;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required: {WORKLOADS:?}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The first `LOOPSCOPE_*` variable set, if any: every number must measure
/// the default configuration.
fn configuration_override() -> Option<String> {
    std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("LOOPSCOPE_"))
}

fn main() -> ExitCode {
    if let Some(var) = configuration_override() {
        eprintln!("loopbench: {var} is set; unset every LOOPSCOPE_* variable to benchmark the default configuration");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loopbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        Table2::NAME => execute::<Table2>(&args),
        Grid::NAME => execute::<Grid>(&args),
        Corners::NAME => execute::<Corners>(&args),
        Tran::NAME => execute::<Tran>(&args),
        other => Err(format!(
            "unknown workload {other}; expected one of {WORKLOADS:?}"
        )),
    };
    match outcome {
        Ok(o) => {
            if let Some(tracer) = &o.tracer {
                let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .join("out")
                    .join(format!("trace-{}.jsonl", args.workload));
                if let Err(e) = tracer.write_jsonl(&path) {
                    eprintln!("loopbench: could not write {}: {e}", path.display());
                }
            }
            println!("{}", o.info);
            println!("{}", o.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// What one run produced.
struct Outcome {
    /// Run details (one JSON object).
    info: String,
    /// The result line (one JSON object).
    result: String,
    /// Phase spans (set-up, references, provenance, timed phase); the
    /// self-tests check that no ζ reference runs inside a timed phase.
    #[cfg_attr(not(test), allow(dead_code))]
    phases: Vec<Span>,
    /// The full span record of a traced run.
    tracer: Option<Tracer>,
}

/// Structure of the workload's solver plan, taken outside every timed region.
struct Provenance {
    json: String,
    fill_nnz: usize,
    btf_blocks: usize,
}

fn provenance(mut circuit: loopscope_netlist::Circuit) -> Result<Provenance, String> {
    use loopscope_spice::ac::AcAnalysis;
    circuit.zero_ac_sources();
    let op = loopscope_spice::dc::solve_dc(&circuit).map_err(|e| e.to_string())?;
    let ac = AcAnalysis::new(&circuit, &op).map_err(|e| e.to_string())?;
    let s = ac.solver_structure(1.0e6).map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let json = format!(
        "{{\"nproc\":{nproc},\"avx2\":{avx2},\"kernel\":{},\"solver\":{},\"dim\":{},\"commit\":{}}}",
        json_str(s.kernel.name()),
        json_str(&format!("{:?}", s.solver)),
        s.dim,
        json_str(&commit())
    );
    Ok(Provenance {
        json,
        fill_nnz: s.fill_nnz,
        btf_blocks: s.block_count,
    })
}

/// The checked-out commit, read from `.git` when the run starts inside a
/// clone; "unknown" otherwise.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| r.to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Outcome of the output checks over a run.
#[derive(Debug, Default)]
struct Verdicts {
    failed: usize,
    first_error: Option<String>,
    zeta_worst: Option<f64>,
}

impl Verdicts {
    fn record(&mut self, verdict: Result<Option<f64>, String>) {
        match verdict {
            Ok(Some(z)) => self.zeta_worst = Some(self.zeta_worst.map_or(z, |w| w.max(z))),
            Ok(None) => {}
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
    }
}

/// Runs one workload: set-up, ζ references, provenance, then the timed phase
/// (untraced or traced).
fn execute<W: Workload>(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut clock = Clock::new(if W::PARALLEL { nproc } else { 1 });
    let mut phases = Tracer::new();
    let reps = if args.trace { 1 } else { W::SETUP_REPS };
    let mut setup = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        let (w, t) = clock.time(|| {
            phases.span("phase.setup", |_| -> Result<W, String> {
                let w = W::generate(args.seed)?;
                std::hint::black_box(w.run(w.input(0))?);
                Ok(w)
            })
        });
        setup.push(t);
        built = Some(w?);
    }
    let w = built.expect("at least one set-up");
    let t0 = Instant::now();
    let refs: Vec<Option<W::Reference>> = phases.span("phase.reference", |_| {
        (0..w.pool_len())
            .map(|i| w.reference(i).transpose())
            .collect::<Result<_, _>>()
    })?;
    let reference_s = t0.elapsed().as_secs_f64();
    let prov = phases.span("phase.provenance", |_| provenance(w.probe()))?;
    let budget = Duration::from_secs_f64(args.seconds);

    let mut verdicts = Verdicts::default();
    let (requests, mut metrics, tracer) = phases.span("phase.timed", |_| {
        if args.trace {
            let (requests, metrics, tr) =
                measure_traced(&w, &refs, budget, &prov, &mut clock, &mut verdicts);
            (requests, metrics, Some(tr))
        } else {
            let (requests, metrics) =
                measure_untraced(&w, &refs, budget, &mut clock, &mut verdicts);
            (requests, metrics, None)
        }
    });
    let attempted = requests.len();
    let setup_ms: Vec<f64> = setup.iter().map(|t| t.reference_ms).collect();
    if args.trace {
        let zeta = verdicts.zeta_worst.unwrap_or(0.0);
        metrics.push(("post.zeta_err_pct", zeta, "%"));
    } else {
        metrics.push(("setup_s", median(&setup_ms) / 1.0e3, "s"));
        metrics.push(("peak_rss_mb", stats::peak_rss_mb()?, "MB"));
    }
    let wall = sorted(&requests.iter().map(|t| t.wall_ms).collect::<Vec<_>>());
    let kernel = median(&requests.iter().map(|t| t.kernel_ms).collect::<Vec<_>>());
    let setup_wall: Vec<String> = setup.iter().map(|t| json_num(t.wall_ms / 1.0e3)).collect();
    let info = format!(
        "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"requests\":{attempted},\
         \"failed_frac\":{},\"zeta_err_pct\":{},\"first_error\":{},\
         \"wall_latency_p50_ms\":{},\"wall_latency_p90_ms\":{},\"wall_analyses_per_s\":{},\
         \"kernel_ms_median\":{},\"reference_kernel_ms\":{},\"setup_wall_s\":[{}],\
         \"reference_s\":{},\"provenance\":{}}}}}",
        W::NAME,
        args.seed,
        args.trace,
        json_num(verdicts.failed as f64 / attempted as f64),
        verdicts.zeta_worst.map_or("null".to_string(), json_num),
        verdicts
            .first_error
            .as_deref()
            .map_or("null".to_string(), json_str),
        json_num(quantile(&wall, 0.5)),
        json_num(quantile(&wall, 0.9)),
        json_num(1.0e3 * attempted as f64 / wall.iter().sum::<f64>()),
        json_num(kernel),
        json_num(calib::REFERENCE_KERNEL_MS),
        setup_wall.join(","),
        json_num(reference_s),
        prov.json
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{},\"metrics\":{}}}",
        verdicts.failed == 0,
        verdicts.failed,
        metrics_json(&metrics)
    );
    Ok(Outcome {
        info,
        result,
        phases: phases.spans().to_vec(),
        tracer,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end run: a closed loop of user-level requests, untraced.
/// Returns every request's timing and the latency and throughput metrics.
fn measure_untraced<W: Workload>(
    w: &W,
    refs: &[Option<W::Reference>],
    budget: Duration,
    clock: &mut Clock,
    verdicts: &mut Verdicts,
) -> (Vec<Timing>, Metrics) {
    let mut timings = Vec::new();
    let start = Instant::now();
    while timings.is_empty() || start.elapsed() < budget {
        let i = timings.len();
        let input = w.input(i);
        let (out, t) = clock.time(|| w.run(input));
        timings.push(t);
        verdicts.record(out.and_then(|o| w.check(&o, refs[i % refs.len()].as_ref())));
    }
    let latency = sorted(&timings.iter().map(|t| t.reference_ms).collect::<Vec<_>>());
    let busy_s = latency.iter().sum::<f64>() / 1.0e3;
    let metrics = vec![
        ("latency_p50_ms", quantile(&latency, 0.5), "ms"),
        ("latency_p90_ms", quantile(&latency, 0.9), "ms"),
        ("analyses_per_s", timings.len() as f64 / busy_s, "1/s"),
    ];
    (timings, metrics)
}

/// The traced run: each request runs composed (under spans) and as the
/// user-level call, in alternating order; the user-level output is checked.
/// Returns the composed requests' timings, the per-layer metrics and the
/// span record.
fn measure_traced<W: Workload>(
    w: &W,
    refs: &[Option<W::Reference>],
    budget: Duration,
    prov: &Provenance,
    clock: &mut Clock,
    verdicts: &mut Verdicts,
) -> (Vec<Timing>, Metrics, Tracer) {
    let mut tr = Tracer::new();
    let window = w.pool_len().min(COUNTER_WINDOW);
    let mut counts = Counts::default();
    let mut composed_t = Vec::new();
    let mut e2e_t = Vec::new();
    let mut matched = true;
    let start = Instant::now();
    while composed_t.len() < window || start.elapsed() < budget {
        let i = composed_t.len();
        let mut request_counts = Counts::default();
        let mut composed = |tr: &mut Tracer, clock: &mut Clock| {
            let input = w.input(i);
            tr.set_request(Some(i));
            let out = clock
                .time(|| tr.span("request", |tr| w.run_traced(input, tr, &mut request_counts)));
            tr.set_request(None);
            out
        };
        let e2e = |clock: &mut Clock| {
            let input = w.input(i);
            clock.time(|| w.run(input))
        };
        let ((c_out, c_t), (e_out, e_t)) = if i % 2 == 0 {
            let c = composed(&mut tr, clock);
            (c, e2e(clock))
        } else {
            let e = e2e(clock);
            (composed(&mut tr, clock), e)
        };
        composed_t.push(c_t);
        e2e_t.push(e_t);
        matched &= matches!((&c_out, &e_out), (Ok(c), Ok(e)) if W::same(c, e));
        verdicts.record(e_out.and_then(|o| w.check(&o, refs[i % refs.len()].as_ref())));
        if i < window {
            for (k, v) in request_counts.0 {
                counts.add(k, v);
            }
        }
    }
    // Median over requests of the summed self time of the named spans, in
    // reference milliseconds (scaled like the request that holds them).
    let self_times = tr.self_times(composed_t.len());
    let layer_ms = |names: &[&str]| -> f64 {
        let v: Vec<f64> = composed_t
            .iter()
            .zip(&self_times)
            .map(|(t, selfs)| {
                let ns: u64 = names.iter().filter_map(|n| selfs.get(n)).sum();
                ns as f64 / 1.0e6 * t.reference_ms / t.wall_ms
            })
            .collect();
        quantile(&sorted(&v), 0.5)
    };
    let c = |k: &str| counts.get(k) / window as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let median_ref = |ts: &[Timing]| median(&ts.iter().map(|t| t.reference_ms).collect::<Vec<_>>());
    let dc_ms = layer_ms(&["dc"]);
    let ac_sweep_ms = layer_ms(&["ac.sweep"]);
    let batch_ms = layer_ms(&["batch"]);
    let post_ms = layer_ms(&["post", "post.plot", "post.result", "post.report"]);
    let fixed_ms = layer_ms(&["tran.fixed"]);
    let adaptive_ms = layer_ms(&["tran.adaptive"]);
    let overhead = 100.0 * (median_ref(&composed_t) / median_ref(&e2e_t) - 1.0);
    let adaptive_attempts = c("tran.adaptive.accepted") + c("tran.adaptive.rejected");
    let metrics = vec![
        ("dc.ms", dc_ms, "ms"),
        ("dc.newton_iters", c("dc.newton_iters"), "count"),
        ("dc.escalations", c("dc.escalations"), "count"),
        ("ac.new.ms", layer_ms(&["ac.new"]), "ms"),
        ("ac.sweep.ms", ac_sweep_ms, "ms"),
        (
            "ac.sweep.us_per_point",
            per(ac_sweep_ms * 1.0e3, c("ac.points")),
            "us",
        ),
        (
            "ac.sweep.ns_per_rhs_point",
            per(ac_sweep_ms * 1.0e6, c("ac.rhs_points")),
            "ns",
        ),
        ("sparse.symbolic", c("sparse.symbolic"), "count"),
        (
            "sparse.numeric_refactor",
            c("sparse.numeric_refactor"),
            "count",
        ),
        ("sparse.fresh_fallback", c("sparse.fresh_fallback"), "count"),
        (
            "sparse.residual_retries",
            c("sparse.residual_retries"),
            "count",
        ),
        ("sparse.gmin_bumps", c("sparse.gmin_bumps"), "count"),
        (
            "sparse.iterative_solves",
            c("sparse.iterative_solves"),
            "count",
        ),
        ("sparse.fill_nnz", prov.fill_nnz as f64, "count"),
        ("sparse.btf_blocks", prov.btf_blocks as f64, "count"),
        ("batch.ms", batch_ms, "ms"),
        (
            "batch.us_per_variant_point",
            per(batch_ms * 1.0e3, c("batch.variant_points")),
            "us",
        ),
        ("batch.yield_frac", c("batch.yield_frac"), "fraction"),
        ("post.ms", post_ms, "ms"),
        (
            "post.us_per_node",
            per(post_ms * 1.0e3, c("post.nodes")),
            "us",
        ),
        ("post.peaks", c("post.peaks"), "count"),
        ("post.loops", c("post.loops"), "count"),
        ("tran.fixed.ms", fixed_ms, "ms"),
        ("tran.adaptive.ms", adaptive_ms, "ms"),
        ("tran.accepted_steps", c("tran.accepted_steps"), "count"),
        ("tran.rejected_steps", c("tran.rejected_steps"), "count"),
        ("tran.newton_iters", c("tran.newton_iters"), "count"),
        (
            "tran.accept_ratio",
            per(c("tran.adaptive.accepted"), adaptive_attempts),
            "fraction",
        ),
        (
            "tran.us_per_step",
            per((fixed_ms + adaptive_ms) * 1.0e3, c("tran.accepted_steps")),
            "us",
        ),
        ("trace.overhead_pct", overhead, "%"),
        (
            "trace.composition_match",
            if matched { 1.0 } else { 0.0 },
            "bool",
        ),
    ];
    (composed_t, metrics, tr)
}

#[cfg(test)]
mod tests;

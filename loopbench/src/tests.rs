//! Self-tests of the benchmark. The grid workload makes these slow in a
//! debug build; run them with `cargo test --release`.

use super::*;
use loopscope_netlist::Circuit;

/// The element values of an input (the circuit's name maps iterate in a
/// per-process random order, so they are left out).
trait Fingerprint {
    fn fingerprint(&self) -> String;
}

impl Fingerprint for Circuit {
    fn fingerprint(&self) -> String {
        format!("{:?}", self.elements())
    }
}

impl Fingerprint for Vec<(String, Circuit)> {
    fn fingerprint(&self) -> String {
        self.iter()
            .map(|(label, c)| format!("{label}: {}", c.fingerprint()))
            .collect()
    }
}

fn inputs<W: Workload>(seed: u64) -> Vec<String>
where
    W::Input: Fingerprint,
{
    let w = W::generate(seed).expect("inputs generate");
    (0..w.pool_len())
        .map(|i| w.input(i).fingerprint())
        .collect()
}

fn seeds_drive_inputs<W: Workload>()
where
    W::Input: Fingerprint,
{
    let a = inputs::<W>(11);
    assert_eq!(
        a,
        inputs::<W>(11),
        "{}: same seed, different inputs",
        W::NAME
    );
    let b = inputs::<W>(12);
    assert_ne!(a[0], b[0], "{}: different seeds, same inputs", W::NAME);
}

/// Runs request 0 composed twice and as the user-level call once.
fn composed_counts<W: Workload>() -> Counts {
    let w = W::generate(5).expect("inputs generate");
    let mut first = Counts::default();
    let composed = w
        .run_traced(w.input(0), &mut Tracer::new(), &mut first)
        .expect("composed request runs");
    let mut second = Counts::default();
    w.run_traced(w.input(0), &mut Tracer::new(), &mut second)
        .expect("composed request runs");
    assert_eq!(first, second, "{}: counters differ between runs", W::NAME);
    let e2e = w.run(w.input(0)).expect("user-level request runs");
    assert!(W::same(&composed, &e2e), "{}: composition differs", W::NAME);
    w.check(
        &e2e,
        w.reference(0).transpose().expect("reference").as_ref(),
    )
    .expect("output check passes");
    assert_eq!(first.get("sparse.iterative_solves"), 0.0, "{}", W::NAME);
    first
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    seeds_drive_inputs::<Table2>();
    seeds_drive_inputs::<Grid>();
    seeds_drive_inputs::<Corners>();
    seeds_drive_inputs::<Tran>();
}

#[test]
fn table2_counters_repeat() {
    let c = composed_counts::<Table2>();
    assert_eq!(c.get("sparse.numeric_refactor"), 601.0);
    assert_eq!(c.get("post.loops"), 2.0);
}

#[test]
fn grid_counters_repeat() {
    let c = composed_counts::<Grid>();
    assert_eq!(c.get("sparse.numeric_refactor"), 101.0);
    assert_eq!(c.get("post.loops"), 0.0);
}

#[test]
fn corner_counters_repeat() {
    let c = composed_counts::<Corners>();
    assert_eq!(c.get("batch.yield_frac"), 1.0);
    assert_eq!(c.get("post.loops"), 256.0);
}

#[test]
fn tran_counters_repeat() {
    let c = composed_counts::<Tran>();
    assert!(c.get("tran.accepted_steps") > 4000.0);
    assert!(c.get("tran.newton_iters") >= c.get("tran.accepted_steps"));
}

fn assert_references_untimed(phases: &[Span]) {
    let of = |name: &str| -> Vec<&Span> { phases.iter().filter(|s| s.name == name).collect() };
    let refs = of("phase.reference");
    assert_eq!(refs.len(), 1);
    for timed in of("phase.setup").into_iter().chain(of("phase.timed")) {
        for r in &refs {
            assert!(
                r.end_ns <= timed.start_ns || timed.end_ns <= r.start_ns,
                "{} overlaps the ζ reference",
                timed.name
            );
        }
    }
}

#[test]
fn zeta_references_are_computed_outside_timed_regions() {
    for trace in [false, true] {
        let args = |workload: &str| Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.2,
            trace,
        };
        let table2 = execute::<Table2>(&args(Table2::NAME)).expect("table2 runs");
        assert!(
            table2.result.contains("\"correct\":true"),
            "{}",
            table2.result
        );
        assert_references_untimed(&table2.phases);
        let corners = execute::<Corners>(&args(Corners::NAME)).expect("corners run");
        assert!(
            corners.result.contains("\"correct\":true"),
            "{}",
            corners.result
        );
        assert_references_untimed(&corners.phases);
    }
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = parse("--workload tran_baseline --seed 9 --seconds 2 --trace 1").unwrap();
    assert_eq!((a.seed, a.seconds, a.trace), (9, 2.0, true));
    assert!(parse("--workload x --trace 2").is_err());
    assert!(parse("--seed 1").is_err());
    assert!(parse("--workload x --bogus 1").is_err());
    assert!(parse("--workload x --seconds 0").is_err());
}

//! Cached MNA assembly: build the sparsity pattern once, then restamp values
//! in place and refactor with a reused pivot order.
//!
//! Every analysis in this crate solves the same shape of problem many times
//! over: an AC sweep assembles `Y(jω)` at hundreds of frequencies, a DC
//! Newton loop re-linearizes at every iteration, a transient run re-stamps
//! companion models at every timestep — and in all cases the **sparsity
//! pattern never changes**, only the values. The naive pipeline (triplet
//! accumulation → sort/dedup to CSR → pivoting factorization) repays none of
//! that structure.
//!
//! [`CachedMna`] is the structured pipeline:
//!
//! 1. **First assembly** runs the element stamps into a
//!    [`TripletMatrix`](loopscope_sparse::TripletMatrix) and
//!    converts to CSR — exactly the naive path — and keeps the CSR as the
//!    pattern.
//! 2. **Later assemblies** zero the CSR values and replay the same stamps
//!    through a [`SlotSink`], which routes each stamp to its value slot. The
//!    slots were resolved once, by binary search within the row, and kept on
//!    a [`StampTape`]; a stamp that matches its tape entry reuses the slot,
//!    and only a stamp whose position changed is searched again. No
//!    allocation, no sorting, no BTreeMap. If a stamp misses the pattern (a
//!    nonlinear device changed operating region, say), the assembly
//!    transparently rebuilds the pattern.
//! 3. **Factorization** computes a fill-reducing (minimum-degree) column
//!    order on first use and captures the resulting threshold-pivoted
//!    [`SymbolicLu`]; afterwards it runs the numeric-only, allocation-free
//!    [`SparseLu::refactor_into`] over buffers owned by the cache,
//!    re-analyzing only when the refactorization reports a degraded pivot or
//!    the pattern was rebuilt.
//!
//! [`SolveStats`] counts what actually happened, which is how the tests (and
//! the `solver_refactor` bench) assert that e.g. a whole AC sweep performs
//! exactly one symbolic analysis.
//!
//! # Two drivers over the same machinery
//!
//! * [`CachedMna`] is the **adaptive serial cache**: it owns pattern,
//!   symbolic analysis and factors in one mutable bundle, rebuilding and
//!   re-adopting them as the matrix structure or numerics drift. That is the
//!   right shape for DC Newton loops and transient stepping, where operating
//!   regions change and each solve depends on the previous one.
//! * [`SweepPlan`] / [`SolveContext`] are the **parallel sweep engine**: the
//!   same pipeline split into an immutable, shareable plan (slot maps, CSR
//!   pattern, symbolic analysis) and a per-worker context holding every
//!   mutable buffer. Frequency sweeps are embarrassingly parallel, and the
//!   split is what lets [`crate::par::sweep_chunks`] chunk a sweep across
//!   worker threads with bitwise-identical results at any worker count.

use crate::error::SpiceError;
use crate::mna::{MatrixSink, MnaLayout, Stamper};
use crate::solver::{
    configured_solver_mode, resolve_backend, GMRES_ACCEPT_BACKWARD_TOLERANCE,
    PRECOND_REFRESH_INTERVAL,
};
use loopscope_sparse::{
    gmres_solve_into, CsrMatrix, DrivingPointSchedule, GmresWorkspace, LuWorkspace,
    RefineWorkspace, Scalar, SolveError, SolveQuality, SolverBackend, SparseLu, SymbolicLu,
};
use std::sync::Arc;

/// Per-point gmin bump schedule of the solve retry ladder: on its last rung
/// the ladder adds each value in turn to every stored node-voltage diagonal
/// and retries a fresh factorization, regularizing near-singular systems the
/// way SPICE's gmin does. The schedule is a fixed constant — no randomness,
/// no state carried between points — so the ladder's decisions at a sweep
/// point are a pure function of that point's values and parallel sweeps stay
/// bitwise reproducible.
pub const GMIN_BUMP_LADDER: [f64; 2] = [1.0e-9, 1.0e-6];

/// Adds `bump` to every stored node-voltage diagonal slot (`0..node_vars`),
/// returning whether at least one such slot exists in the pattern. Branch
/// rows (voltage sources, inductors) are never bumped — a shunt conductance
/// there has no physical meaning.
fn bump_node_diagonals<T: Scalar>(matrix: &mut CsrMatrix<T>, node_vars: usize, bump: f64) -> bool {
    let limit = node_vars.min(matrix.rows()).min(matrix.cols());
    let mut any = false;
    for v in 0..limit {
        if let Some(slot) = matrix.find_slot(v, v) {
            matrix.values_mut()[slot] += T::from_f64(bump);
            any = true;
        }
    }
    any
}

/// A circuit-assembly job: stamps one MNA system into any matrix sink.
///
/// Implementations must be **pure**: calling [`stamp`](AssembleMna::stamp)
/// twice with equivalent sinks must produce the same entries, because the
/// cache replays the job when it needs to rebuild the pattern.
pub trait AssembleMna<T: Scalar> {
    /// Stamps the matrix entries and right-hand side for this job.
    fn stamp<S: MatrixSink<T>>(&self, stamper: &mut Stamper<'_, T, S>);
}

/// The resolved destinations of one assembly's stamps, in stamp order:
/// `(row, col, slot)` per stamp, where `slot` indexes the CSR value buffer.
///
/// A tape belongs to whoever owns the value buffer it indexes
/// ([`CachedMna`], [`SolveContext`], the batch engine's lane group) and must
/// be [`clear`](StampTape::clear)ed whenever that buffer's pattern changes.
/// Jobs stamp the same positions in the same order at every call, so after
/// the first [`SlotSink`] pass records them every later pass replays them:
/// each stamp costs one comparison instead of a binary search.
#[derive(Debug, Default)]
pub struct StampTape {
    entries: Vec<(usize, usize, usize)>,
}

impl StampTape {
    /// An empty tape; the first assembly through it records every stamp.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every recorded destination (call when the pattern changes).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Matrix sink that accumulates stamps into the value slots of an existing
/// CSR pattern. Records (instead of panicking on) stamps that fall outside
/// the pattern so the caller can rebuild.
///
/// Each stamp's slot comes from a [`StampTape`]: when the stamp at the tape
/// cursor addressed the same `(row, col)` last time, its recorded slot is
/// reused; otherwise the slot is looked up by binary search
/// ([`CsrMatrix::find_slot`]) and the tape is re-recorded from the cursor
/// on. A job whose stamp order changes between calls (a MOSFET whose drain
/// and source swap roles) therefore stays correct and only pays the search
/// where its order changed.
#[derive(Debug)]
pub struct SlotSink<'m, T: Scalar> {
    csr: &'m mut CsrMatrix<T>,
    tape: &'m mut StampTape,
    cursor: usize,
    missed: bool,
}

impl<'m, T: Scalar> SlotSink<'m, T> {
    /// Wraps a CSR matrix whose values have already been zeroed, with the
    /// tape of slots recorded over that matrix's pattern.
    pub fn new(csr: &'m mut CsrMatrix<T>, tape: &'m mut StampTape) -> Self {
        Self {
            csr,
            tape,
            cursor: 0,
            missed: false,
        }
    }

    /// `true` when at least one stamp addressed a position outside the
    /// pattern (the assembly is then incomplete and must be rebuilt).
    pub fn missed(&self) -> bool {
        self.missed
    }
}

impl<T: Scalar> MatrixSink<T> for SlotSink<'_, T> {
    #[inline]
    fn add(&mut self, row: usize, col: usize, value: T) {
        let entries = &mut self.tape.entries;
        if let Some(&(r, c, slot)) = entries.get(self.cursor) {
            if r == row && c == col {
                debug_assert_eq!(self.csr.find_slot(row, col), Some(slot));
                self.csr.values_mut()[slot] += value;
                self.cursor += 1;
                return;
            }
        }
        match self.csr.find_slot(row, col) {
            Some(slot) => {
                entries.truncate(self.cursor);
                entries.push((row, col, slot));
                self.cursor += 1;
                self.csr.values_mut()[slot] += value;
            }
            None => self.missed = true,
        }
    }
}

/// Counters describing how a [`CachedMna`] served its solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Full symbolic analyses (pivot order + fill pattern computations).
    pub symbolic: usize,
    /// Numeric-only refactorizations that reused the pattern.
    pub numeric_refactor: usize,
    /// Fresh pivoting factorizations forced by a degraded pivot.
    pub fresh_fallback: usize,
    /// Pattern rebuilds forced by a stamp outside the cached pattern.
    pub pattern_rebuilds: usize,
    /// In-place (value-only) assemblies served from the cached pattern.
    pub cached_assemblies: usize,
    /// Retry-ladder escalations to a fresh threshold-pivoted factorization
    /// after a residual-verified solve failed its backward-error check (the
    /// fresh analysis itself is counted in `symbolic`). Healthy sweeps keep
    /// this at zero.
    pub residual_retries: usize,
    /// Per-point gmin bumps applied by the retry ladder's last rung (each
    /// followed by a fresh factorization, counted in `symbolic`). A nonzero
    /// count means some solutions were computed on a deliberately
    /// regularized system.
    pub gmin_bumps: usize,
    /// Solves attempted on the iterative (GMRES) backend — whether the
    /// attempt was accepted or fell back. Zero under the direct backend.
    pub iterative_solves: usize,
    /// Total GMRES Arnoldi iterations across all iterative solves. A pure
    /// function of the per-point inputs, so chunking/thread-invariant.
    pub gmres_iterations: usize,
    /// Scheduled stale-preconditioner refreshes: one per
    /// [`crate::solver::PRECOND_REFRESH_INTERVAL`]-sized group of sweep
    /// points (plus one per direct-path refresh of the adaptive cache).
    /// Warm-up refactorizations a worker performs to reconstruct the anchor
    /// of a mid-group chunk start are deliberately **not** counted, keeping
    /// the total chunking-invariant.
    pub preconditioner_refreshes: usize,
    /// Iterative solves whose GMRES verdict missed the acceptance tolerance
    /// and were re-solved on the exact verified-direct ladder. Healthy
    /// sweeps keep this at zero.
    pub iterative_fallbacks: usize,
}

impl SolveStats {
    /// Total number of factorizations of any kind.
    pub fn factorizations(&self) -> usize {
        self.symbolic + self.numeric_refactor + self.fresh_fallback
    }

    /// Accumulates another counter set into this one.
    ///
    /// The parallel sweep executor hands every worker its own
    /// [`SolveContext`] (and with it its own `SolveStats`); merging the
    /// workers' counters into the plan-level totals keeps sweep invariants —
    /// "one symbolic analysis per sweep", "every point was a numeric
    /// refactorization" — assertable under any thread count, because sums
    /// are independent of how the points were chunked.
    pub fn merge(&mut self, other: &SolveStats) {
        self.symbolic += other.symbolic;
        self.numeric_refactor += other.numeric_refactor;
        self.fresh_fallback += other.fresh_fallback;
        self.pattern_rebuilds += other.pattern_rebuilds;
        self.cached_assemblies += other.cached_assemblies;
        self.residual_retries += other.residual_retries;
        self.gmin_bumps += other.gmin_bumps;
        self.iterative_solves += other.iterative_solves;
        self.gmres_iterations += other.gmres_iterations;
        self.preconditioner_refreshes += other.preconditioner_refreshes;
        self.iterative_fallbacks += other.iterative_fallbacks;
    }
}

/// Reusable assembly + factorization state for one MNA structure.
///
/// Create one per analysis run (or store it for the lifetime of the circuit —
/// the cache detects pattern changes) and drive every solve through
/// [`assemble`](CachedMna::assemble) followed by
/// [`factor`](CachedMna::factor), or the [`solve`](CachedMna::solve)
/// convenience wrapper. The first factorization computes a minimum-degree
/// fill-reducing ordering and a threshold-pivoted symbolic analysis; every
/// later one is a numeric-only refactorization into buffers the cache owns,
/// so the steady state performs no factorization-side heap allocation.
///
/// ```
/// use loopscope_netlist::{Circuit, SourceSpec};
/// use loopscope_spice::assembly::CachedMna;
/// use loopscope_spice::mna::{MatrixSink, MnaLayout, Stamper};
///
/// // A conductance-divider job: same pattern at every drive level.
/// struct Divider {
///     g: f64,
/// }
/// impl loopscope_spice::assembly::AssembleMna<f64> for Divider {
///     fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
///         st.add_var_var(0, 0, self.g + 1.0e-3);
///         st.add_var_var(0, 1, -self.g);
///         st.add_var_var(1, 0, -self.g);
///         st.add_var_var(1, 1, self.g);
///         st.add_rhs_var(0, 1.0e-3);
///     }
/// }
///
/// let mut c = Circuit::new("divider");
/// let a = c.node("a");
/// let b = c.node("b");
/// c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
/// c.add_resistor("R2", a, b, 1.0e3);
/// c.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1.0e-3));
/// let layout = MnaLayout::new(&c);
///
/// let mut cache = CachedMna::<f64>::new();
/// for k in 1..=4 {
///     let x = cache.solve(&layout, &Divider { g: 1.0e-3 * k as f64 })?;
///     assert!(x[0].is_finite());
/// }
/// // One symbolic analysis serves the whole series of solves.
/// assert_eq!(cache.stats().symbolic, 1);
/// assert_eq!(cache.stats().numeric_refactor, 3);
/// # Ok::<(), loopscope_sparse::SolveError>(())
/// ```
#[derive(Debug)]
pub struct CachedMna<T: Scalar> {
    csr: Option<CsrMatrix<T>>,
    /// Slots of the stamps into `csr`, replayed by every cached assembly;
    /// cleared whenever the pattern is rebuilt.
    tape: StampTape,
    symbolic: Option<SymbolicLu>,
    /// The factorization whose L/U value buffers every refactorization
    /// reuses; handed out by reference from [`factor`](CachedMna::factor).
    lu: Option<SparseLu<T>>,
    /// Scratch buffers of the allocation-free refactorization path.
    workspace: LuWorkspace<T>,
    /// Scratch for [`solve`](CachedMna::solve)'s substitution sweeps.
    solve_work: Vec<T>,
    /// Scratch of the residual-verified solve path; grown on first use,
    /// reused (allocation-free) afterwards.
    refine_ws: RefineWorkspace<T>,
    /// Pristine copy of the right-hand side, so retry-ladder escalations can
    /// restart the solve from `b` after a failed attempt overwrote it.
    rhs_backup: Vec<T>,
    /// The solver mode this cache resolves its backend from; captured from
    /// the `LOOPSCOPE_SOLVER` environment at construction, overridable with
    /// [`set_solver_mode`](CachedMna::set_solver_mode).
    solver_mode: crate::solver::SolverMode,
    /// The backend resolved against the current pattern's structure; cleared
    /// on pattern rebuilds (the structure — and with it the auto decision —
    /// may have changed).
    backend: Option<SolverBackend>,
    /// Verified solves served off the current factors since they were last
    /// refreshed; at [`PRECOND_REFRESH_INTERVAL`] the next solve refactors
    /// directly instead of iterating off the stale factors.
    solves_since_refresh: usize,
    /// Scratch of the GMRES path; empty until the first iterative solve.
    gmres_ws: GmresWorkspace<T>,
    /// Pristine RHS copy of the iterative attempt — separate from
    /// `rhs_backup`, which the direct ladder overwrites internally when a
    /// GMRES miss falls back to it.
    backend_rhs: Vec<T>,
    stats: SolveStats,
}

impl<T: Scalar> Default for CachedMna<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> CachedMna<T> {
    /// Creates an empty cache; the first assembly establishes the pattern.
    pub fn new() -> Self {
        Self {
            csr: None,
            tape: StampTape::new(),
            symbolic: None,
            lu: None,
            workspace: LuWorkspace::new(),
            solve_work: Vec::new(),
            refine_ws: RefineWorkspace::new(),
            rhs_backup: Vec::new(),
            solver_mode: configured_solver_mode(),
            backend: None,
            solves_since_refresh: 0,
            gmres_ws: GmresWorkspace::new(),
            backend_rhs: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Overrides the solver mode (normally captured from `LOOPSCOPE_SOLVER`
    /// at construction) — the in-process pin the test matrices use instead
    /// of mutating the environment. Resets the backend resolution, so the
    /// next verified solve re-resolves against the current structure.
    pub fn set_solver_mode(&mut self, mode: crate::solver::SolverMode) {
        self.solver_mode = mode;
        self.backend = None;
        self.solves_since_refresh = 0;
    }

    /// The backend the cache resolved for the current pattern, if the first
    /// symbolic analysis has run ([`resolve_backend`] needs the structure).
    pub fn backend(&self) -> Option<SolverBackend> {
        self.backend
    }

    /// Assembles the MNA system for `job`, reusing the cached pattern when
    /// possible, and returns the right-hand side (the matrix stays inside the
    /// cache for [`factor`](CachedMna::factor)).
    pub fn assemble(&mut self, layout: &MnaLayout, job: &impl AssembleMna<T>) -> Vec<T> {
        let mut rhs = Vec::new();
        self.assemble_into(layout, job, &mut rhs);
        rhs
    }

    /// Like [`assemble`](CachedMna::assemble), but writing the right-hand
    /// side into a caller-held buffer instead of allocating a fresh one: on
    /// the cached (pattern-hit) path, once `rhs`'s capacity has reached the
    /// layout dimension the assembly performs **zero heap allocations** —
    /// the property the transient Newton loop relies on, where the same
    /// buffer cycles through assemble → solve at every iteration of every
    /// timestep. A pattern rebuild (structure change) still allocates, as
    /// it must.
    pub fn assemble_into(
        &mut self,
        layout: &MnaLayout,
        job: &impl AssembleMna<T>,
        rhs: &mut Vec<T>,
    ) {
        if let Some(csr) = self.csr.as_mut() {
            csr.zero_values();
            let buf = std::mem::take(rhs);
            let mut stamper =
                Stamper::with_sink_reusing(layout, SlotSink::new(csr, &mut self.tape), buf);
            job.stamp(&mut stamper);
            let (sink, out) = stamper.into_parts();
            let missed = sink.missed();
            *rhs = out;
            if !missed {
                self.stats.cached_assemblies += 1;
                return;
            }
            // The structure changed under us: drop the pattern (and the
            // symbolic analysis and factorization tied to it) and rebuild
            // below.
            self.stats.pattern_rebuilds += 1;
            self.csr = None;
            self.tape.clear();
            self.symbolic = None;
            self.lu = None;
            // The structure (and with it the auto backend decision) changed.
            self.backend = None;
            self.solves_since_refresh = 0;
        }

        let mut stamper = Stamper::new(layout);
        job.stamp(&mut stamper);
        let (triplets, out) = stamper.finish();
        self.csr = Some(triplets.to_csr());
        *rhs = out;
    }

    /// The assembled matrix from the most recent
    /// [`assemble`](CachedMna::assemble) call.
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    pub fn matrix(&self) -> &CsrMatrix<T> {
        self.csr
            .as_ref()
            .expect("CachedMna::assemble must run first")
    }

    /// Factors the most recently assembled matrix, reusing the symbolic
    /// analysis whenever one is available and still numerically healthy.
    ///
    /// The returned reference stays valid until the next mutating call; the
    /// underlying L/U value buffers are owned by the cache and reused across
    /// calls, so a steady-state refactorization allocates nothing. The first
    /// factorization of a pattern computes a minimum-degree fill-reducing
    /// ordering (see [`loopscope_sparse::ordering`]) and factors with
    /// KLU-style threshold pivoting, which keeps the reused fill pattern —
    /// and with it every later refactorization — small.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the system is singular or
    /// inconsistent.
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    pub fn factor(&mut self) -> Result<&SparseLu<T>, SolveError> {
        let csr = self
            .csr
            .as_ref()
            .expect("CachedMna::assemble must run first");
        if self.symbolic.is_some() && self.lu.is_some() {
            let symbolic = self.symbolic.as_ref().expect("checked above");
            let lu = self.lu.as_mut().expect("checked above");
            if let Err(e) = lu.refactor_into(symbolic, csr, &mut self.workspace) {
                // A failed refactorization leaves the factors unusable; drop
                // them so the next attempt re-analyzes from scratch.
                self.lu = None;
                return Err(e);
            }
            if lu.refactored() {
                self.stats.numeric_refactor += 1;
            } else {
                // The pivot order went stale and the fallback already ran a
                // fresh pivoting factorization — adopt its pattern so the
                // next solve refactors again instead of re-analyzing.
                self.stats.fresh_fallback += 1;
                self.symbolic = Some(self.lu.as_ref().expect("still present").extract_symbolic());
            }
            return Ok(self.lu.as_ref().expect("refactored in place"));
        }
        // First factorization over this pattern: block-triangular analysis,
        // then a min-degree order and threshold-pivoted factorization per
        // diagonal block (KLU-style; irreducible patterns degenerate to one
        // block and the plain ordered factorization).
        let (lu, symbolic) = SparseLu::factor_with_symbolic_btf(csr)?;
        self.symbolic = Some(symbolic);
        self.stats.symbolic += 1;
        Ok(self.lu.insert(lu))
    }

    /// The symbolic analysis currently serving refactorizations, if any —
    /// a fill/ordering diagnostic (e.g. `fill_nnz` for the bench tables).
    pub fn symbolic(&self) -> Option<&SymbolicLu> {
        self.symbolic.as_ref()
    }

    /// Convenience wrapper: assemble, factor, and solve with the assembled
    /// right-hand side.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the system is singular.
    pub fn solve(
        &mut self,
        layout: &MnaLayout,
        job: &impl AssembleMna<T>,
    ) -> Result<Vec<T>, SolveError> {
        let mut solution = Vec::new();
        self.solve_in_place(layout, job, &mut solution)?;
        Ok(solution)
    }

    /// Like [`solve`](CachedMna::solve), but cycling a caller-held buffer:
    /// `solution` receives the assembled right-hand side and is solved in
    /// place. On the cached-pattern path, once the buffer and the cache's
    /// internal scratch are warm (after the first call) the entire
    /// assemble → refactor → solve cycle performs **zero heap allocations**
    /// — this is the entry point the transient Newton loop drives at every
    /// iteration of every timestep.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the system is singular
    /// (the contents of `solution` are unspecified in that case).
    pub fn solve_in_place(
        &mut self,
        layout: &MnaLayout,
        job: &impl AssembleMna<T>,
        solution: &mut Vec<T>,
    ) -> Result<(), SolveError> {
        self.assemble_into(layout, job, solution);
        self.factor()?;
        let lu = self.lu.as_ref().expect("factor just succeeded");
        // Size-only adjustment: `solve_into` overwrites every work slot in
        // its forward sweep, so no zeroing is needed.
        if self.solve_work.len() != lu.dim() {
            self.solve_work.resize(lu.dim(), T::ZERO);
        }
        lu.solve_into(solution, &mut self.solve_work)?;
        Ok(())
    }

    /// Convenience wrapper over the retry ladder: assemble, then
    /// [`verify_assembled`](CachedMna::verify_assembled). Returns the
    /// residual-verified solution together with its [`SolveQuality`].
    ///
    /// # Errors
    ///
    /// Returns the name-enriched [`SpiceError`] when every rung of the
    /// ladder fails (see [`verify_assembled`](CachedMna::verify_assembled)).
    pub fn solve_verified(
        &mut self,
        layout: &MnaLayout,
        job: &impl AssembleMna<T>,
    ) -> Result<(Vec<T>, SolveQuality), SpiceError> {
        let mut solution = Vec::new();
        let quality = self.solve_verified_into(layout, job, &mut solution)?;
        Ok((solution, quality))
    }

    /// Like [`solve_verified`](CachedMna::solve_verified), but cycling a
    /// caller-held buffer — the residual-verified analogue of
    /// [`solve_in_place`](CachedMna::solve_in_place). Once the buffers are
    /// warm and no ladder escalation fires, the cycle performs zero heap
    /// allocations, so this is safe to drive from the transient Newton loop.
    ///
    /// # Errors
    ///
    /// Returns the name-enriched [`SpiceError`] when every rung of the
    /// ladder fails (see [`verify_assembled`](CachedMna::verify_assembled)).
    pub fn solve_verified_into(
        &mut self,
        layout: &MnaLayout,
        job: &impl AssembleMna<T>,
        solution: &mut Vec<T>,
    ) -> Result<SolveQuality, SpiceError> {
        self.assemble_into(layout, job, solution);
        self.verify_assembled(layout, solution)
    }

    /// Runs the structured **retry ladder** over the most recently assembled
    /// system. `rhs` holds `b` on entry and the verified solution on
    /// success. The rungs, in order:
    ///
    /// 1. factor (a pattern-reusing refactorization when possible, with the
    ///    built-in fresh fallback on a degraded pivot) and solve with
    ///    iterative refinement ([`SparseLu::solve_refined_into`]);
    /// 2. if the backward error still fails its tolerance and the factors
    ///    came from a reused pivot order, escalate to a fresh
    ///    threshold-pivoted factorization of this exact system
    ///    (`residual_retries` in [`SolveStats`]);
    /// 3. if the system is singular or refinement still cannot converge,
    ///    apply the deterministic per-point gmin bumps of
    ///    [`GMIN_BUMP_LADDER`] to the node-voltage diagonals, re-factoring
    ///    after each (`gmin_bumps` in [`SolveStats`]).
    ///
    /// Every escalation decision is a pure function of the assembled values,
    /// so identical systems take identical ladders.
    ///
    /// # Errors
    ///
    /// Non-finite stamps abort immediately as
    /// [`SpiceError::NonFiniteStamp`] (no rung can repair a NaN); a system
    /// still singular after the gmin rung surfaces as
    /// [`SpiceError::SingularSystem`]; a ladder that ran dry with finite
    /// arithmetic returns [`SpiceError::ResidualCheckFailed`]. All carry
    /// circuit names mapped through the [`MnaLayout`].
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    pub fn verify_assembled(
        &mut self,
        layout: &MnaLayout,
        rhs: &mut [T],
    ) -> Result<SolveQuality, SpiceError> {
        let n = layout.dim();
        if rhs.len() != n {
            return Err(SpiceError::Linear(SolveError::RhsLength {
                expected: n,
                got: rhs.len(),
            }));
        }
        if let Some(quality) = self.iterative_attempt(rhs) {
            return Ok(quality);
        }
        let result = self.verify_assembled_direct(layout, rhs);
        // The direct rungs factored the current system: under the iterative
        // backend those factors are the freshly refreshed preconditioner for
        // the next solves.
        if result.is_ok() && self.backend.is_some_and(|b| b.is_iterative()) {
            self.solves_since_refresh = 0;
        }
        result
    }

    /// The GMRES leg of a verified solve: `Some(quality)` when the iterative
    /// backend is active, stale factors are available and the solve passed
    /// the acceptance tolerance; `None` routes to the direct ladder (first
    /// solve, scheduled refresh, pattern rebuild or GMRES miss — with the
    /// RHS restored and `iterative_fallbacks` counted for a miss).
    fn iterative_attempt(&mut self, rhs: &mut [T]) -> Option<SolveQuality> {
        if self.backend.is_none() {
            let symbolic = self.symbolic.as_ref()?;
            self.backend = Some(resolve_backend(
                self.solver_mode,
                symbolic.dim(),
                symbolic.fill_nnz(),
            ));
        }
        let opts = self.backend?.gmres_options()?;
        if self.lu.is_none() || self.solves_since_refresh >= PRECOND_REFRESH_INTERVAL {
            // Scheduled refresh: let the direct path factor this system; its
            // factors then serve the next group of solves.
            self.stats.preconditioner_refreshes += 1;
            return None;
        }
        let csr = self.csr.as_ref().expect("assemble must run first");
        let lu = self.lu.as_ref().expect("checked above");
        self.backend_rhs.clear();
        self.backend_rhs.extend_from_slice(rhs);
        self.stats.iterative_solves += 1;
        if let Ok(out) = gmres_solve_into(csr, lu, rhs, &opts, &mut self.gmres_ws) {
            self.stats.gmres_iterations += out.iterations;
            if out.converged && out.backward_error <= GMRES_ACCEPT_BACKWARD_TOLERANCE {
                self.solves_since_refresh += 1;
                return Some(SolveQuality {
                    residual_norm: out.residual_norm,
                    backward_error: out.backward_error,
                    refinement_steps: 0,
                    pivot_growth: lu.pivot_growth(),
                    converged: true,
                });
            }
        }
        self.stats.iterative_fallbacks += 1;
        rhs.copy_from_slice(&self.backend_rhs);
        None
    }

    /// The direct verified-solve rungs of
    /// [`verify_assembled`](CachedMna::verify_assembled) — the exact ladder
    /// of PR 6, unchanged; the iterative backend falls back here whenever
    /// GMRES misses its tolerance.
    fn verify_assembled_direct(
        &mut self,
        layout: &MnaLayout,
        rhs: &mut [T],
    ) -> Result<SolveQuality, SpiceError> {
        self.rhs_backup.clear();
        self.rhs_backup.extend_from_slice(rhs);
        let mut pending_singular = None;
        let mut last_quality: Option<SolveQuality> = None;

        match self.factor() {
            Ok(_) => {}
            Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
            Err(e) => return Err(SpiceError::from_solve(e, layout)),
        }
        if pending_singular.is_none() {
            let q = self.refined_attempt(layout, rhs)?;
            if q.converged {
                return Ok(q);
            }
            last_quality = Some(q);
            let reused_pivots = self.lu.as_ref().is_some_and(|lu| lu.refactored());
            if reused_pivots {
                self.stats.residual_retries += 1;
                match self.fresh_factor_adopting() {
                    Ok(()) => {
                        rhs.copy_from_slice(&self.rhs_backup);
                        let q = self.refined_attempt(layout, rhs)?;
                        if q.converged {
                            return Ok(q);
                        }
                        last_quality = Some(q);
                    }
                    Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                    Err(e) => return Err(SpiceError::from_solve(e, layout)),
                }
            }
        }
        let node_vars = layout.dim() - layout.branch_count();
        let mut bumps = 0usize;
        for &bump in GMIN_BUMP_LADDER.iter() {
            let matrix = self.csr.as_mut().expect("assemble must run first");
            if !bump_node_diagonals(matrix, node_vars, bump) {
                break;
            }
            self.stats.gmin_bumps += 1;
            bumps += 1;
            match self.fresh_factor_adopting() {
                Ok(()) => {
                    rhs.copy_from_slice(&self.rhs_backup);
                    let q = self.refined_attempt(layout, rhs)?;
                    if q.converged {
                        return Ok(q);
                    }
                    last_quality = Some(q);
                    pending_singular = None;
                }
                Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                Err(e) => return Err(SpiceError::from_solve(e, layout)),
            }
        }
        match pending_singular {
            Some(e) => Err(SpiceError::from_solve(e, layout)),
            None => Err(SpiceError::ResidualCheckFailed {
                backward_error: last_quality.map_or(f64::INFINITY, |q| q.backward_error),
                gmin_bumps: bumps,
            }),
        }
    }

    /// One residual-verified solve over the current factors and matrix.
    fn refined_attempt(
        &mut self,
        layout: &MnaLayout,
        rhs: &mut [T],
    ) -> Result<SolveQuality, SpiceError> {
        let csr = self.csr.as_ref().expect("assemble must run first");
        let lu = self.lu.as_ref().expect("factor must succeed first");
        lu.solve_refined_into(csr, rhs, &mut self.refine_ws)
            .map_err(|e| SpiceError::from_solve(e, layout))
    }

    /// Fresh threshold-pivoted factorization of the current matrix, adopting
    /// its pattern (counted in `symbolic`, like every full analysis).
    fn fresh_factor_adopting(&mut self) -> Result<(), SolveError> {
        let csr = self.csr.as_ref().expect("assemble must run first");
        let (lu, symbolic) = SparseLu::factor_with_symbolic_btf(csr)?;
        self.symbolic = Some(symbolic);
        self.lu = Some(lu);
        self.stats.symbolic += 1;
        Ok(())
    }

    /// Hager/Higham 1-norm condition estimate of the most recently factored
    /// system (see [`SparseLu::condition_estimate`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] on a dimension mismatch.
    ///
    /// # Panics
    ///
    /// Panics when no successful [`factor`](CachedMna::factor) call has run.
    pub fn condition_estimate(&self) -> Result<f64, SolveError> {
        let csr = self
            .csr
            .as_ref()
            .expect("CachedMna::assemble must run first");
        let lu = self
            .lu
            .as_ref()
            .expect("CachedMna::factor must succeed first");
        lu.condition_estimate(csr)
    }

    /// Mutable access to the assembled matrix values — the perturbation hook
    /// the fault-injection test-suites use to poison stamped values between
    /// assembly and solve. Compiled only for tests and under the
    /// `fault-inject` feature; never part of the production surface.
    ///
    /// # Panics
    ///
    /// Panics when called before any assembly.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn matrix_mut(&mut self) -> &mut CsrMatrix<T> {
        self.csr
            .as_mut()
            .expect("CachedMna::assemble must run first")
    }
}

/// The **immutable, shareable half** of a sweep's solver state: everything
/// that is a function of the circuit *structure* (and of the representative
/// values the plan was built from), nothing that mutates during a solve.
///
/// A plan holds the [`MnaLayout`]'s slot assignment, the CSR sparsity
/// pattern (values zeroed) whose slot map every assembly reuses, and the
/// [`SymbolicLu`] — row/column permutations plus fill pattern — captured by
/// one fill-reducing ordered factorization at build time. All of it is
/// read-only, so a plan is `Sync` and can be shared by reference (or
/// `Arc`) across any number of worker threads.
///
/// The mutable half lives in [`SolveContext`], minted per worker by
/// [`context`](SweepPlan::context): value buffers, L/U numeric buffers,
/// scratch and counters. The split is what makes frequency sweeps
/// embarrassingly parallel — workers share the expensive analysis and own
/// everything they write to:
///
/// ```text
///            SweepPlan (built once, immutable, shared)
///      layout slot maps · CSR pattern · Arc<SymbolicLu> (perm, cperm, fill)
///            │ context()          │ context()            │ context()
///            ▼                    ▼                      ▼
///      SolveContext #1      SolveContext #2        SolveContext #3
///      csr values, L/U      csr values, L/U        csr values, L/U
///      workspace, stats     workspace, stats       workspace, stats
/// ```
///
/// Because every context always refactors against the *same* plan symbolic
/// (never adopting a per-worker pattern mid-sweep), the values a context
/// produces at a point depend only on the job at that point — results are
/// bitwise identical no matter how points are chunked across workers.
///
/// ```
/// use loopscope_netlist::{Circuit, SourceSpec};
/// use loopscope_spice::assembly::{AssembleMna, SweepPlan};
/// use loopscope_spice::mna::{MatrixSink, MnaLayout, Stamper};
///
/// struct Divider {
///     g: f64,
/// }
/// impl AssembleMna<f64> for Divider {
///     fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
///         st.add_var_var(0, 0, self.g + 1.0e-3);
///         st.add_var_var(0, 1, -self.g);
///         st.add_var_var(1, 0, -self.g);
///         st.add_var_var(1, 1, self.g);
///         st.add_rhs_var(0, 1.0e-3);
///     }
/// }
///
/// let mut c = Circuit::new("divider");
/// let a = c.node("a");
/// let b = c.node("b");
/// c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
/// c.add_resistor("R2", a, b, 1.0e3);
/// c.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1.0e-3));
/// let layout = MnaLayout::new(&c);
///
/// // One symbolic analysis at build time, shared by every context.
/// let plan = SweepPlan::build(&layout, &Divider { g: 1.0e-3 })?;
/// let mut ctx = plan.context();
/// for k in 1..=4 {
///     let x = ctx.solve(&Divider { g: 1.0e-3 * k as f64 })?;
///     assert!(x[0].is_finite());
/// }
/// assert_eq!(plan.stats().symbolic, 1);
/// assert_eq!(ctx.stats().numeric_refactor, 4);
/// assert_eq!(ctx.stats().symbolic, 0);
/// # Ok::<(), loopscope_sparse::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepPlan<T: Scalar> {
    layout: MnaLayout,
    /// The shared sparsity pattern with zeroed values: every context clones
    /// it once at mint time and restamps values into its own copy.
    pattern: CsrMatrix<T>,
    /// Permutations + fill pattern shared by every context (`SymbolicLu` is
    /// itself `Arc`-backed, so the extra `Arc` keeps the plan cheaply
    /// clonable as a whole).
    symbolic: Arc<SymbolicLu>,
    /// The solver backend every context minted from this plan routes its
    /// verified solves through — resolved once at build time from the
    /// `LOOPSCOPE_SOLVER` mode and the system structure, so all workers of a
    /// sweep agree on it.
    backend: SolverBackend,
    /// Counters of the build itself (exactly one symbolic analysis).
    build_stats: SolveStats,
}

impl<T: Scalar> SweepPlan<T> {
    /// Builds a plan by assembling `job` from scratch (triplets → CSR) and
    /// running one fill-reducing ordered factorization over it to capture
    /// the symbolic analysis.
    ///
    /// `job` should stamp **representative values** (e.g. the first
    /// frequency point of the sweep): the threshold-pivoted ordering is
    /// computed from them, and every context refactorization reuses it.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the representative system
    /// is singular.
    pub fn build(layout: &MnaLayout, job: &impl AssembleMna<T>) -> Result<Self, SolveError> {
        let mut plan = Self::build_with_backend(layout, job, SolverBackend::Direct)?;
        plan.backend = resolve_backend(
            configured_solver_mode(),
            plan.symbolic.dim(),
            plan.symbolic.fill_nnz(),
        );
        Ok(plan)
    }

    /// Like [`build`](SweepPlan::build), but pinning the solver backend
    /// instead of resolving it from the `LOOPSCOPE_SOLVER` environment —
    /// the in-process override the determinism and fault-injection test
    /// matrices use, so they never mutate global state.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the representative system
    /// is singular.
    pub fn build_with_backend(
        layout: &MnaLayout,
        job: &impl AssembleMna<T>,
        backend: SolverBackend,
    ) -> Result<Self, SolveError> {
        let mut stamper = Stamper::new(layout);
        job.stamp(&mut stamper);
        let (triplets, _rhs) = stamper.finish();
        let mut pattern = triplets.to_csr();
        let (_, symbolic) = SparseLu::factor_with_symbolic_btf(&pattern)?;
        pattern.zero_values();
        Ok(Self {
            layout: layout.clone(),
            pattern,
            symbolic: Arc::new(symbolic),
            backend,
            build_stats: SolveStats {
                symbolic: 1,
                ..SolveStats::default()
            },
        })
    }

    /// The solver backend every context of this plan routes through.
    pub fn backend(&self) -> SolverBackend {
        self.backend
    }

    /// The MNA layout whose slot assignment the plan's pattern was built for.
    pub fn layout(&self) -> &MnaLayout {
        &self.layout
    }

    /// Matrix dimension of the planned system.
    pub fn dim(&self) -> usize {
        self.symbolic.dim()
    }

    /// The symbolic analysis (permutations + fill pattern) every context
    /// refactorization reuses.
    pub fn symbolic(&self) -> &SymbolicLu {
        &self.symbolic
    }

    /// Counters of the plan build itself: exactly one symbolic analysis.
    /// Merge with the workers' [`SolveContext::stats`] for sweep totals.
    pub fn stats(&self) -> SolveStats {
        self.build_stats
    }

    /// The shared zero-valued sparsity pattern. Batched drivers clone it
    /// once per variant lane and restamp values into each copy, exactly as
    /// [`context`](SweepPlan::context) does for its single value CSR.
    pub(crate) fn pattern(&self) -> &CsrMatrix<T> {
        &self.pattern
    }

    /// Mints a fresh per-worker [`SolveContext`]: its own value CSR (cloned
    /// from the shared pattern), an unfilled L/U shell over the shared
    /// symbolic analysis, a pre-sized workspace and solve scratch. All
    /// allocation happens here; the context's sweep loop is allocation-free
    /// on the factor/solve side from its very first point.
    pub fn context(&self) -> SolveContext<'_, T> {
        let n = self.dim();
        SolveContext {
            plan: self,
            csr: self.pattern.clone(),
            tape: StampTape::new(),
            lu: SparseLu::from_symbolic(&self.symbolic),
            workspace: LuWorkspace::for_dim(n),
            solve_work: vec![T::ZERO; n],
            driving_work: Vec::new(),
            refine_ws: RefineWorkspace::for_dim(n),
            rhs_backup: Vec::with_capacity(n),
            off_pattern: None,
            factored: false,
            precond: SparseLu::from_symbolic(&self.symbolic),
            precond_anchor: None,
            gmres_ws: GmresWorkspace::new(),
            backend_rhs: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    /// Like [`context`](SweepPlan::context), additionally pre-sizing the
    /// driving-point panel scratch for panels of up to `panel_width`
    /// injections, so even the first
    /// [`solve_driving_points`](SolveContext::solve_driving_points) call
    /// over the context performs no heap allocation. This is what the
    /// all-nodes scan's frequency workers use.
    pub fn context_with_panel(&self, panel_width: usize) -> SolveContext<'_, T> {
        let mut ctx = self.context();
        ctx.driving_work = vec![T::ZERO; self.dim() * panel_width];
        ctx
    }
}

/// The **mutable, per-worker half** of a sweep's solver state: everything a
/// solve writes to, owned exclusively by one worker.
///
/// Minted by [`SweepPlan::context`]; drive each point through
/// [`assemble`](SolveContext::assemble) → [`factor`](SolveContext::factor) →
/// [`solve_in_place`](SolveContext::solve_in_place) (one factor, many
/// right-hand sides), or the [`solve`](SolveContext::solve) convenience
/// wrapper. The all-nodes scan replaces the last step with
/// [`solve_driving_points`](SolveContext::solve_driving_points): pruned
/// panels over a [`DrivingPointSchedule`] shared by all workers, with a
/// per-point fallback to per-RHS solves when the point's factorization no
/// longer shares the plan's pattern.
///
/// Unlike [`CachedMna`], a context never adopts a new pattern or pivot
/// order mid-sweep: every point refactors against the plan's fixed
/// symbolic analysis, and a numerically degraded point falls back to a
/// fresh factorization **for that point only**. Results at a point are
/// therefore a pure function of the job — independent of the points the
/// context processed before — which is what makes chunked parallel sweeps
/// bitwise identical to the serial run.
#[derive(Debug)]
pub struct SolveContext<'p, T: Scalar> {
    plan: &'p SweepPlan<T>,
    /// Worker-owned value buffer over the plan's sparsity pattern.
    csr: CsrMatrix<T>,
    /// Slots of the stamps into `csr` (the pattern never changes, so the
    /// tape is never cleared).
    tape: StampTape,
    /// Worker-owned L/U numeric buffers (pattern shared with the plan).
    lu: SparseLu<T>,
    workspace: LuWorkspace<T>,
    solve_work: Vec<T>,
    /// The pruned driving-point work panel — all zeros between calls, as
    /// [`SparseLu::solve_driving_points_into`] requires — whose first
    /// column doubles as the unit-vector scratch of the per-RHS fallback.
    /// Grown on demand, pre-sized by [`SweepPlan::context_with_panel`].
    driving_work: Vec<T>,
    /// Scratch of the residual-verified solve path, pre-sized at mint time.
    refine_ws: RefineWorkspace<T>,
    /// Pristine copy of the right-hand side, so retry-ladder escalations can
    /// restart the solve from `b` after a failed attempt overwrote it.
    rhs_backup: Vec<T>,
    /// A from-scratch matrix built when a stamp missed the shared pattern;
    /// used by [`factor`](SolveContext::factor) and the verified-solve path
    /// as a one-point fallback until the next assembly clears it (the plan
    /// and the context's slot map stay untouched).
    off_pattern: Option<CsrMatrix<T>>,
    factored: bool,
    /// The stale preconditioner of the iterative backend: the LU of the
    /// sweep group's **anchor** matrix, kept separate from `lu` so a
    /// direct-ladder fallback at one point can never corrupt the
    /// preconditioner other points of the group rely on.
    precond: SparseLu<T>,
    /// The sweep index whose matrix `precond` currently factors; `None`
    /// until the first refresh, or after an anchor whose refactorization
    /// failed (every point of that group then takes the direct fallback).
    precond_anchor: Option<usize>,
    /// Scratch of the GMRES path; empty until the first iterative solve.
    gmres_ws: GmresWorkspace<T>,
    /// Pristine RHS copy of the iterative attempt — separate from
    /// `rhs_backup`, which the direct ladder overwrites internally when a
    /// GMRES miss falls back to it.
    backend_rhs: Vec<T>,
    stats: SolveStats,
}

impl<'p, T: Scalar> SolveContext<'p, T> {
    /// The plan this context was minted from.
    pub fn plan(&self) -> &'p SweepPlan<T> {
        self.plan
    }

    /// Counters accumulated by this context since it was minted.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The solver backend this context routes
    /// [`solve_backend_in_place`](SolveContext::solve_backend_in_place)
    /// through (fixed at plan build time).
    pub fn backend(&self) -> SolverBackend {
        self.plan.backend
    }

    /// Ensures the stale preconditioner of the iterative backend factors the
    /// matrix of sweep index `anchor_idx`, assembling `anchor_job` (the job
    /// of that index) and refactoring when it does not. A no-op under the
    /// direct backend and when the preconditioner is already current.
    ///
    /// Call **before** [`assemble`](SolveContext::assemble) for the point —
    /// the anchor assembly borrows the context's value buffer, which the
    /// point's own assembly then restamps.
    ///
    /// `scheduled` marks the refresh the sweep schedule mandates (the point
    /// **is** its own anchor): only those are counted in
    /// `preconditioner_refreshes`. The uncounted warm-up refresh a worker
    /// performs when its chunk starts mid-group reconstructs the identical
    /// anchor factorization, which is what keeps every point's GMRES inputs
    /// — and so its iteration count and solution — bitwise invariant under
    /// any chunking. An anchor that cannot be refactored (singular or
    /// off-pattern) clears the preconditioner; every point of its group then
    /// takes the counted direct fallback, identically in any chunking.
    pub fn ensure_preconditioner(
        &mut self,
        anchor_idx: usize,
        scheduled: bool,
        anchor_job: &impl AssembleMna<T>,
    ) {
        if !self.plan.backend.is_iterative() {
            return;
        }
        if scheduled {
            self.stats.preconditioner_refreshes += 1;
        } else if self.precond_anchor == Some(anchor_idx) {
            return;
        }
        // Assemble the anchor system, uncounted: warm-up work must not
        // perturb the chunking-invariant per-point assembly counters.
        self.factored = false;
        self.csr.zero_values();
        let mut stamper = Stamper::with_sink(
            self.plan.layout(),
            SlotSink::new(&mut self.csr, &mut self.tape),
        );
        anchor_job.stamp(&mut stamper);
        let (sink, _rhs) = stamper.into_parts();
        if sink.missed() {
            self.precond_anchor = None;
            return;
        }
        match self
            .precond
            .refactor_into(&self.plan.symbolic, &self.csr, &mut self.workspace)
        {
            Ok(()) => self.precond_anchor = Some(anchor_idx),
            Err(_) => self.precond_anchor = None,
        }
    }

    /// Solves the most recently assembled system through the plan's solver
    /// backend: under [`SolverBackend::Direct`] this **is**
    /// [`solve_verified_in_place`](SolveContext::solve_verified_in_place);
    /// under the iterative backend it runs GMRES off the stale
    /// preconditioner installed by
    /// [`ensure_preconditioner`](SolveContext::ensure_preconditioner) and
    /// accepts the result only when its true-residual backward error passes
    /// [`GMRES_ACCEPT_BACKWARD_TOLERANCE`] — anything else (missed
    /// tolerance, missing/failed preconditioner, off-pattern point) restores
    /// the right-hand side and re-solves on the exact verified-direct
    /// ladder, counted in `iterative_fallbacks`. Failure semantics and
    /// structured errors are therefore identical across backends.
    ///
    /// `rhs` holds `b` on entry and the verified solution on success.
    ///
    /// # Errors
    ///
    /// Exactly those of
    /// [`solve_verified_in_place`](SolveContext::solve_verified_in_place).
    pub fn solve_backend_in_place(&mut self, rhs: &mut [T]) -> Result<SolveQuality, SpiceError> {
        let Some(opts) = self.plan.backend.gmres_options() else {
            return self.solve_verified_in_place(rhs);
        };
        let n = self.plan.dim();
        if rhs.len() != n {
            return Err(SpiceError::Linear(SolveError::RhsLength {
                expected: n,
                got: rhs.len(),
            }));
        }
        if self.precond_anchor.is_none() || self.off_pattern.is_some() {
            self.stats.iterative_fallbacks += 1;
            return self.solve_verified_in_place(rhs);
        }
        self.backend_rhs.clear();
        self.backend_rhs.extend_from_slice(rhs);
        self.stats.iterative_solves += 1;
        if let Ok(out) = gmres_solve_into(&self.csr, &self.precond, rhs, &opts, &mut self.gmres_ws)
        {
            self.stats.gmres_iterations += out.iterations;
            if out.converged && out.backward_error <= GMRES_ACCEPT_BACKWARD_TOLERANCE {
                return Ok(SolveQuality {
                    residual_norm: out.residual_norm,
                    backward_error: out.backward_error,
                    refinement_steps: 0,
                    pivot_growth: self.precond.pivot_growth(),
                    converged: true,
                });
            }
        }
        self.stats.iterative_fallbacks += 1;
        rhs.copy_from_slice(&self.backend_rhs);
        self.solve_verified_in_place(rhs)
    }

    /// Assembles the MNA system for `job` into the context's value buffer
    /// (value-only restamp over the plan's slot map) and returns the
    /// right-hand side.
    ///
    /// A job stamping outside the shared pattern — which cannot happen for
    /// the frequency sweeps the plan exists for, whose pattern is
    /// frequency-independent — is handled per point: the system is rebuilt
    /// from scratch and the next [`factor`](SolveContext::factor) runs a
    /// fresh analysis for this point only, leaving the shared plan (and
    /// later points) untouched.
    pub fn assemble(&mut self, job: &impl AssembleMna<T>) -> Vec<T> {
        self.off_pattern = None;
        self.factored = false;
        self.csr.zero_values();
        let mut stamper = Stamper::with_sink(
            self.plan.layout(),
            SlotSink::new(&mut self.csr, &mut self.tape),
        );
        job.stamp(&mut stamper);
        let (sink, rhs) = stamper.into_parts();
        if !sink.missed() {
            self.stats.cached_assemblies += 1;
            return rhs;
        }
        self.stats.pattern_rebuilds += 1;
        let mut stamper = Stamper::new(self.plan.layout());
        job.stamp(&mut stamper);
        let (triplets, rhs) = stamper.finish();
        self.off_pattern = Some(triplets.to_csr());
        rhs
    }

    /// Factors the most recently assembled system: a numeric-only
    /// refactorization against the plan's symbolic analysis (the hot path),
    /// or a fresh one-point factorization when the assembly went off
    /// pattern or a pivot degraded.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the system is singular.
    ///
    /// # Panics
    ///
    /// Panics when called before any [`assemble`](SolveContext::assemble).
    pub fn factor(&mut self) -> Result<&SparseLu<T>, SolveError> {
        if let Some(matrix) = self.off_pattern.as_ref() {
            // One-point fallback: a full analysis of the off-plan matrix.
            // The matrix stays around (until the next assembly) so the
            // verified-solve path can compute residuals against it.
            let (lu, _) = SparseLu::factor_with_symbolic_btf(matrix)?;
            self.stats.symbolic += 1;
            self.lu = lu;
            self.factored = true;
            return Ok(&self.lu);
        }
        self.lu
            .refactor_into(&self.plan.symbolic, &self.csr, &mut self.workspace)?;
        if self.lu.refactored() {
            self.stats.numeric_refactor += 1;
        } else {
            // Degraded pivot at this point: `refactor_into` already fell
            // back to a fresh factorization. Unlike `CachedMna` the new
            // pattern is NOT adopted — the next point refactors against the
            // shared plan again, so no point's result ever depends on chunk
            // boundaries or on which points this worker saw before.
            self.stats.fresh_fallback += 1;
        }
        self.factored = true;
        Ok(&self.lu)
    }

    /// Solves the factored system in place: `rhs` holds `b` on entry and
    /// `x` on return, using the context's own scratch (no allocation).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `rhs` does not match the
    /// system dimension.
    ///
    /// # Panics
    ///
    /// Panics when no successful [`factor`](SolveContext::factor) call has
    /// run since the last assembly.
    pub fn solve_in_place(&mut self, rhs: &mut [T]) -> Result<(), SolveError> {
        assert!(
            self.factored,
            "SolveContext::factor must succeed before solving"
        );
        self.lu.solve_into(rhs, &mut self.solve_work)
    }

    /// Driving-point responses of the factored system: `out[m]` receives
    /// entry `v` of `A⁻¹·e_v` for `v = schedule.vars()[m]`, one panel of
    /// unit injections at a time.
    ///
    /// When the point refactored against the plan's pattern — the hot path
    /// — this runs the pruned
    /// [`SparseLu::solve_driving_points_into`] over `schedule` (built once
    /// per scan from [`SweepPlan::symbolic`]). A point that went off
    /// pattern, or whose pivot degraded so `refactor_into` fell back to a
    /// fresh pivot order, no longer shares the schedule's pattern; it solves
    /// each unit vector in full instead, exactly as
    /// [`solve_in_place`](SolveContext::solve_in_place) does. The pruned
    /// path is **bitwise identical** to those per-RHS solves, so any panel
    /// width produces the same numbers.
    ///
    /// Allocation-free once the context's panel scratch has reached
    /// `schedule.panel_width()` — mint the context with
    /// [`SweepPlan::context_with_panel`] to pre-size it.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::RhsLength`] when `out.len()` differs from
    /// `schedule.vars().len()`.
    ///
    /// # Panics
    ///
    /// Panics when no successful [`factor`](SolveContext::factor) call has
    /// run since the last assembly.
    pub fn solve_driving_points(
        &mut self,
        schedule: &DrivingPointSchedule,
        out: &mut [T],
    ) -> Result<(), SolveError> {
        assert!(
            self.factored,
            "SolveContext::factor must succeed before solving"
        );
        let n = self.plan.dim();
        let width = schedule.panel_width();
        if self.driving_work.len() < n * width {
            self.driving_work.resize(n * width, T::ZERO);
        }
        if schedule.applies_to(&self.lu) {
            return self.lu.solve_driving_points_into(
                schedule,
                out,
                &mut self.driving_work[..n * width],
            );
        }
        if out.len() != schedule.vars().len() {
            return Err(SolveError::RhsLength {
                expected: schedule.vars().len(),
                got: out.len(),
            });
        }
        // Per-RHS solves of the unit vectors, the reference the pruned path
        // is bitwise identical to.
        let x = &mut self.driving_work[..n];
        for (&var, z) in schedule.vars().iter().zip(out.iter_mut()) {
            x[var] = T::ONE;
            let result = self.lu.solve_into(x, &mut self.solve_work);
            *z = x[var];
            // Restore the all-zero invariant of the pruned path.
            x.fill(T::ZERO);
            result?;
        }
        Ok(())
    }

    /// Convenience wrapper: assemble, factor, and solve with the assembled
    /// right-hand side.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] when the system is singular.
    pub fn solve(&mut self, job: &impl AssembleMna<T>) -> Result<Vec<T>, SolveError> {
        let mut rhs = self.assemble(job);
        self.factor()?;
        self.solve_in_place(&mut rhs)?;
        Ok(rhs)
    }

    /// Convenience wrapper over the retry ladder: assemble, then
    /// [`solve_verified_in_place`](SolveContext::solve_verified_in_place).
    /// Returns the residual-verified solution and its [`SolveQuality`].
    ///
    /// # Errors
    ///
    /// Returns the name-enriched [`SpiceError`] when every rung of the
    /// ladder fails.
    pub fn solve_verified(
        &mut self,
        job: &impl AssembleMna<T>,
    ) -> Result<(Vec<T>, SolveQuality), SpiceError> {
        let mut rhs = self.assemble(job);
        let quality = self.solve_verified_in_place(&mut rhs)?;
        Ok((rhs, quality))
    }

    /// Runs the structured **retry ladder** over the most recently assembled
    /// system: factor → residual-verified solve → fresh threshold-pivoted
    /// factorization on a failed backward-error check → deterministic
    /// per-point gmin bumps ([`GMIN_BUMP_LADDER`]). The same ladder as
    /// [`CachedMna::verify_assembled`] — see there for the rung-by-rung
    /// contract — with one sweep-critical difference: escalations here are
    /// strictly **per point**. Nothing a rung does is adopted into the plan
    /// or carried to the next point, so a context that escalated at point
    /// `k` still produces bitwise-identical results at every other point,
    /// whatever the chunking.
    ///
    /// `rhs` holds `b` on entry and the verified solution on success. When
    /// [`factor`](SolveContext::factor) already ran since the last assembly
    /// its factors are reused as rung 1; otherwise the ladder factors first.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NonFiniteStamp`] for NaN/∞ stamps,
    /// [`SpiceError::SingularSystem`] for systems the gmin rung cannot
    /// regularize, [`SpiceError::ResidualCheckFailed`] when the ladder runs
    /// dry — all enriched with circuit names.
    pub fn solve_verified_in_place(&mut self, rhs: &mut [T]) -> Result<SolveQuality, SpiceError> {
        let n = self.plan.dim();
        if rhs.len() != n {
            return Err(SpiceError::Linear(SolveError::RhsLength {
                expected: n,
                got: rhs.len(),
            }));
        }
        self.rhs_backup.clear();
        self.rhs_backup.extend_from_slice(rhs);
        let mut pending_singular = None;
        let mut last_quality: Option<SolveQuality> = None;

        if !self.factored {
            match self.factor() {
                Ok(_) => {}
                Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                Err(e) => return Err(SpiceError::from_solve(e, self.plan.layout())),
            }
        }
        if pending_singular.is_none() {
            let q = self.refined_attempt(rhs)?;
            if q.converged {
                return Ok(q);
            }
            last_quality = Some(q);
            if self.lu.refactored() {
                self.stats.residual_retries += 1;
                match self.fresh_factor_point() {
                    Ok(()) => {
                        rhs.copy_from_slice(&self.rhs_backup);
                        let q = self.refined_attempt(rhs)?;
                        if q.converged {
                            return Ok(q);
                        }
                        last_quality = Some(q);
                    }
                    Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                    Err(e) => return Err(SpiceError::from_solve(e, self.plan.layout())),
                }
            }
        }
        let node_vars = self.plan.layout().dim() - self.plan.layout().branch_count();
        let mut bumps = 0usize;
        for &bump in GMIN_BUMP_LADDER.iter() {
            let matrix = self.off_pattern.as_mut().unwrap_or(&mut self.csr);
            if !bump_node_diagonals(matrix, node_vars, bump) {
                break;
            }
            self.stats.gmin_bumps += 1;
            bumps += 1;
            match self.fresh_factor_point() {
                Ok(()) => {
                    rhs.copy_from_slice(&self.rhs_backup);
                    let q = self.refined_attempt(rhs)?;
                    if q.converged {
                        return Ok(q);
                    }
                    last_quality = Some(q);
                    pending_singular = None;
                }
                Err(e @ SolveError::Singular(_)) => pending_singular = Some(e),
                Err(e) => return Err(SpiceError::from_solve(e, self.plan.layout())),
            }
        }
        match pending_singular {
            Some(e) => Err(SpiceError::from_solve(e, self.plan.layout())),
            None => Err(SpiceError::ResidualCheckFailed {
                backward_error: last_quality.map_or(f64::INFINITY, |q| q.backward_error),
                gmin_bumps: bumps,
            }),
        }
    }

    /// One residual-verified solve over the current factors and matrix.
    fn refined_attempt(&mut self, rhs: &mut [T]) -> Result<SolveQuality, SpiceError> {
        let matrix = self.off_pattern.as_ref().unwrap_or(&self.csr);
        self.lu
            .solve_refined_into(matrix, rhs, &mut self.refine_ws)
            .map_err(|e| SpiceError::from_solve(e, self.plan.layout()))
    }

    /// Fresh threshold-pivoted factorization of this point's matrix only —
    /// unlike [`CachedMna`], the resulting pattern is **not** adopted; the
    /// next point refactors against the shared plan as usual. Counted in
    /// `symbolic`, like every full analysis.
    fn fresh_factor_point(&mut self) -> Result<(), SolveError> {
        let matrix = self.off_pattern.as_ref().unwrap_or(&self.csr);
        let (lu, _) = SparseLu::factor_with_symbolic_btf(matrix)?;
        self.lu = lu;
        self.factored = true;
        self.stats.symbolic += 1;
        Ok(())
    }

    /// Hager/Higham 1-norm condition estimate of the most recently factored
    /// system (see [`SparseLu::condition_estimate`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SolveError`] on a dimension mismatch.
    ///
    /// # Panics
    ///
    /// Panics when no successful [`factor`](SolveContext::factor) call has
    /// run since the last assembly.
    pub fn condition_estimate(&self) -> Result<f64, SolveError> {
        assert!(
            self.factored,
            "SolveContext::factor must succeed before estimating conditioning"
        );
        let matrix = self.off_pattern.as_ref().unwrap_or(&self.csr);
        self.lu.condition_estimate(matrix)
    }

    /// Mutable access to the assembled matrix values — the perturbation hook
    /// the fault-injection test-suites use to poison stamped values between
    /// assembly and solve. Compiled only for tests and under the
    /// `fault-inject` feature; never part of the production surface.
    #[cfg(any(test, feature = "fault-inject"))]
    pub fn matrix_mut(&mut self) -> &mut CsrMatrix<T> {
        self.off_pattern.as_mut().unwrap_or(&mut self.csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopscope_netlist::{Circuit, SourceSpec};

    /// A tiny hand-written job: conductance ladder with a value knob.
    struct LadderJob {
        g1: f64,
        g2: f64,
        extra_entry: bool,
    }

    impl AssembleMna<f64> for LadderJob {
        fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
            st.add_var_var(0, 0, self.g1 + self.g2);
            st.add_var_var(0, 1, -self.g2);
            st.add_var_var(1, 0, -self.g2);
            st.add_var_var(1, 1, self.g2);
            st.add_rhs_var(0, 1.0e-3);
            if self.extra_entry {
                st.add_var_var(1, 1, 0.5);
            }
        }
    }

    fn two_node_layout() -> (Circuit, MnaLayout) {
        let mut c = Circuit::new("cache test");
        let a = c.node("a");
        let b = c.node("b");
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        c.add_resistor("R2", a, b, 1.0e3);
        c.add_isource("I1", Circuit::GROUND, a, SourceSpec::dc(1.0e-3));
        let layout = MnaLayout::new(&c);
        (c, layout)
    }

    #[test]
    fn second_assembly_is_value_only() {
        let (_c, layout) = two_node_layout();
        let mut cache = CachedMna::<f64>::new();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        cache.assemble(&layout, &job);
        let first = cache.matrix().clone();
        let job2 = LadderJob {
            g1: 4.0e-3,
            g2: 0.5e-3,
            extra_entry: false,
        };
        let rhs = cache.assemble(&layout, &job2);
        assert!(cache.matrix().same_pattern(&first));
        assert_eq!(cache.stats().cached_assemblies, 1);
        assert_eq!(cache.stats().pattern_rebuilds, 0);
        assert!((cache.matrix().get(0, 0) - 4.5e-3).abs() < 1e-18);
        assert!((cache.matrix().get(0, 1) + 0.5e-3).abs() < 1e-18);
        assert_eq!(rhs[0], 1.0e-3);
    }

    #[test]
    fn pattern_miss_triggers_rebuild() {
        let (_c, layout) = two_node_layout();
        let mut cache = CachedMna::<f64>::new();
        cache.assemble(
            &layout,
            &LadderJob {
                g1: 1.0,
                g2: 1.0,
                extra_entry: false,
            },
        );
        cache.factor().unwrap();
        assert_eq!(cache.stats().symbolic, 1);
        // The extra stamp addresses (1,1), which IS in the pattern — use a
        // job with a different structure instead: g2 = 0 keeps positions, so
        // force a genuinely new position via a fresh cache scenario below.
        let mut cache2 = CachedMna::<f64>::new();
        struct DiagOnly;
        impl AssembleMna<f64> for DiagOnly {
            fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
                st.add_var_var(0, 0, 1.0);
                st.add_var_var(1, 1, 2.0);
            }
        }
        cache2.assemble(&layout, &DiagOnly);
        cache2.factor().unwrap();
        cache2.assemble(
            &layout,
            &LadderJob {
                g1: 1.0,
                g2: 1.0,
                extra_entry: false,
            },
        );
        assert_eq!(cache2.stats().pattern_rebuilds, 1);
        assert_eq!(cache2.matrix().get(0, 1), -1.0);
        // The symbolic analysis was invalidated: next factor re-analyzes.
        cache2.factor().unwrap();
        assert_eq!(cache2.stats().symbolic, 2);
    }

    #[test]
    fn factor_counts_refactors() {
        let (_c, layout) = two_node_layout();
        let mut cache = CachedMna::<f64>::new();
        for k in 1..=5 {
            let job = LadderJob {
                g1: 1.0e-3 * k as f64,
                g2: 2.0e-3,
                extra_entry: false,
            };
            let x = cache.solve(&layout, &job).unwrap();
            assert!(x[0].is_finite());
        }
        let stats = cache.stats();
        assert_eq!(stats.symbolic, 1);
        assert_eq!(stats.numeric_refactor, 4);
        assert_eq!(stats.fresh_fallback, 0);
        assert_eq!(stats.factorizations(), 5);
    }

    #[test]
    fn plan_contexts_are_independent_and_deterministic() {
        let (_c, layout) = two_node_layout();
        let job0 = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job0).unwrap();
        assert_eq!(plan.stats().symbolic, 1);
        assert_eq!(plan.dim(), layout.dim());

        // Two contexts solving the same jobs must agree bitwise — and both
        // must match a context that solved them in a different order.
        let jobs: Vec<LadderJob> = (1..=5)
            .map(|k| LadderJob {
                g1: 1.0e-3 * k as f64,
                g2: 2.0e-3 / k as f64,
                extra_entry: false,
            })
            .collect();
        let mut ctx_a = plan.context();
        let mut ctx_b = plan.context();
        let forward: Vec<Vec<f64>> = jobs.iter().map(|j| ctx_a.solve(j).unwrap()).collect();
        let backward: Vec<Vec<f64>> = jobs.iter().rev().map(|j| ctx_b.solve(j).unwrap()).collect();
        for (i, x) in forward.iter().enumerate() {
            let y = &backward[jobs.len() - 1 - i];
            assert_eq!(x, y, "job {i} must not depend on processing order");
        }
        // Every point was a numeric refactorization over the shared plan.
        assert_eq!(ctx_a.stats().symbolic, 0);
        assert_eq!(ctx_a.stats().numeric_refactor, jobs.len());
        assert_eq!(ctx_a.stats().cached_assemblies, jobs.len());
        assert_eq!(ctx_a.stats().pattern_rebuilds, 0);
    }

    #[test]
    fn plan_context_matches_cached_mna() {
        let (_c, layout) = two_node_layout();
        let jobs: Vec<LadderJob> = (1..=4)
            .map(|k| LadderJob {
                g1: 0.5e-3 * k as f64,
                g2: 1.5e-3,
                extra_entry: false,
            })
            .collect();
        let plan = SweepPlan::<f64>::build(&layout, &jobs[0]).unwrap();
        let mut ctx = plan.context();
        let mut cache = CachedMna::<f64>::new();
        for job in &jobs {
            let from_plan = ctx.solve(job).unwrap();
            let from_cache = cache.solve(&layout, job).unwrap();
            for (a, b) in from_plan.iter().zip(&from_cache) {
                assert!((a - b).abs() <= 1e-15 * a.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn off_pattern_point_falls_back_without_poisoning_later_points() {
        let (_c, layout) = two_node_layout();
        // Plan built over a diagonal-only pattern...
        struct DiagOnly;
        impl AssembleMna<f64> for DiagOnly {
            fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
                st.add_var_var(0, 0, 1.0);
                st.add_var_var(1, 1, 2.0);
                st.add_rhs_var(0, 1.0);
            }
        }
        let plan = SweepPlan::<f64>::build(&layout, &DiagOnly).unwrap();
        let mut ctx = plan.context();
        // ...hit with an off-diagonal job: the point must still solve right.
        let off = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let x = ctx.solve(&off).unwrap();
        let mut st = Stamper::new(&layout);
        off.stamp(&mut st);
        let (trip, rhs) = st.finish();
        let reference = loopscope_sparse::solve_once(&trip.to_csr(), &rhs).unwrap();
        for (a, b) in x.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(ctx.stats().pattern_rebuilds, 1);
        assert_eq!(ctx.stats().symbolic, 1);
        // An on-plan point afterwards goes back to the shared fast path and
        // matches a context that never saw the off-pattern job.
        let on = DiagOnly;
        let after = ctx.solve(&on).unwrap();
        let fresh = plan.context().solve(&on).unwrap();
        assert_eq!(after, fresh);
        assert_eq!(ctx.stats().numeric_refactor, 1);
    }

    /// The sink the stamp tape replaces: every stamp looked up by binary
    /// search. Reference for the replay tests.
    struct SearchSink<'m> {
        csr: &'m mut CsrMatrix<f64>,
    }

    impl MatrixSink<f64> for SearchSink<'_> {
        fn add(&mut self, row: usize, col: usize, value: f64) {
            let slot = self.csr.find_slot(row, col).expect("stamp on pattern");
            self.csr.values_mut()[slot] += value;
        }
    }

    /// A MOSFET-shaped stamp over unknowns 0 (drain), 1 (source) and 2
    /// (gate). `swap` exchanges the drain and source roles, so the same
    /// positions are stamped in a different order; `skip` leaves out every
    /// other channel entry.
    struct SwapJob {
        swap: bool,
        skip: bool,
        scale: f64,
    }

    impl AssembleMna<f64> for SwapJob {
        fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
            let (d, s, g) = if self.swap { (1, 0, 2) } else { (0, 1, 2) };
            st.add_var_var(g, g, 1.0);
            let channel = [(d, g), (d, d), (d, s), (s, g), (s, d), (s, s)];
            for (k, &(row, col)) in channel.iter().enumerate() {
                if self.skip && k % 2 == 1 {
                    continue;
                }
                st.add_var_var(row, col, self.scale * (0.1 + 0.7 * k as f64));
            }
            // A second stamp into an already-stamped slot: accumulation
            // order matters for the bits.
            st.add_var_var(d, d, 0.3 * self.scale);
            st.add_rhs_var(d, self.scale);
        }
    }

    fn three_node_layout() -> MnaLayout {
        let mut c = Circuit::new("tape test");
        let a = c.node("a");
        let b = c.node("b");
        let g = c.node("g");
        c.add_resistor("R1", a, b, 1.0e3);
        c.add_resistor("R2", b, g, 1.0e3);
        c.add_resistor("R3", g, Circuit::GROUND, 1.0e3);
        MnaLayout::new(&c)
    }

    fn value_bits(m: &CsrMatrix<f64>) -> Vec<u64> {
        m.iter().map(|(_, _, v)| v.to_bits()).collect()
    }

    /// `job` accumulated by binary search into a zeroed copy of `pattern`.
    fn searched(layout: &MnaLayout, pattern: &CsrMatrix<f64>, job: &SwapJob) -> Vec<u64> {
        let mut reference = pattern.clone();
        reference.zero_values();
        let mut st = Stamper::with_sink(
            layout,
            SearchSink {
                csr: &mut reference,
            },
        );
        job.stamp(&mut st);
        value_bits(&reference)
    }

    #[test]
    fn stamp_tape_replays_bitwise_under_changing_stamp_orders() {
        let layout = three_node_layout();
        // Orders flip on every call; every third call skips entries.
        let jobs: Vec<SwapJob> = (0..9)
            .map(|k| SwapJob {
                swap: k % 2 == 1,
                skip: k % 3 == 2,
                scale: 1.0 + k as f64 / 7.0,
            })
            .collect();
        let first = SwapJob {
            swap: false,
            skip: false,
            scale: 1.0,
        };

        // The adaptive cache: its first assembly fixes the pattern, every
        // later one runs through the tape.
        let mut cache = CachedMna::<f64>::new();
        cache.assemble(&layout, &first);
        let pattern = cache.matrix().clone();
        for (k, job) in jobs.iter().enumerate() {
            let rhs = cache.assemble(&layout, job);
            assert_eq!(
                value_bits(cache.matrix()),
                searched(&layout, &pattern, job),
                "cached assembly {k}"
            );
            assert_eq!(rhs[job.swap as usize], job.scale);
        }
        assert_eq!(cache.stats().pattern_rebuilds, 0);
        assert_eq!(cache.stats().cached_assemblies, jobs.len());

        // A sweep context over a plan of the same pattern.
        let plan = SweepPlan::<f64>::build(&layout, &first).unwrap();
        let mut ctx = plan.context();
        for (k, job) in jobs.iter().enumerate() {
            ctx.assemble(job);
            assert_eq!(
                value_bits(ctx.matrix_mut()),
                searched(&layout, &pattern, job),
                "context assembly {k}"
            );
        }
        assert_eq!(ctx.stats().pattern_rebuilds, 0);

        // Batch lanes: one tape shared by clones of one pattern, each lane
        // stamping a different job of the sequence.
        let mut tape = StampTape::new();
        let mut lanes = vec![pattern.clone(); 3];
        for (k, group) in jobs.chunks(3).enumerate() {
            for (lane, job) in lanes.iter_mut().zip(group) {
                lane.zero_values();
                let mut st = Stamper::with_sink(&layout, SlotSink::new(lane, &mut tape));
                job.stamp(&mut st);
                let (sink, _) = st.into_parts();
                assert!(!sink.missed());
                assert_eq!(
                    value_bits(lane),
                    searched(&layout, &pattern, job),
                    "lane group {k}"
                );
            }
        }
    }

    #[test]
    fn merged_stats_are_chunking_invariant() {
        let mut a = SolveStats {
            symbolic: 1,
            numeric_refactor: 3,
            fresh_fallback: 0,
            pattern_rebuilds: 0,
            cached_assemblies: 4,
            residual_retries: 1,
            gmin_bumps: 0,
            iterative_solves: 7,
            gmres_iterations: 21,
            preconditioner_refreshes: 1,
            iterative_fallbacks: 0,
        };
        let b = SolveStats {
            symbolic: 0,
            numeric_refactor: 5,
            fresh_fallback: 1,
            pattern_rebuilds: 2,
            cached_assemblies: 6,
            residual_retries: 2,
            gmin_bumps: 3,
            iterative_solves: 2,
            gmres_iterations: 9,
            preconditioner_refreshes: 1,
            iterative_fallbacks: 1,
        };
        a.merge(&b);
        assert_eq!(a.symbolic, 1);
        assert_eq!(a.numeric_refactor, 8);
        assert_eq!(a.fresh_fallback, 1);
        assert_eq!(a.pattern_rebuilds, 2);
        assert_eq!(a.cached_assemblies, 10);
        assert_eq!(a.residual_retries, 3);
        assert_eq!(a.gmin_bumps, 3);
        assert_eq!(a.iterative_solves, 9);
        assert_eq!(a.gmres_iterations, 30);
        assert_eq!(a.preconditioner_refreshes, 2);
        assert_eq!(a.iterative_fallbacks, 1);
        assert_eq!(a.factorizations(), 10);
    }

    #[test]
    fn verified_solve_on_healthy_system_takes_no_escalation() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        let plain = ctx.solve(&job).unwrap();
        let (verified, q) = ctx.solve_verified(&job).unwrap();
        assert!(q.converged);
        assert_eq!(q.refinement_steps, 0);
        assert_eq!(verified, plain);
        assert_eq!(ctx.stats().residual_retries, 0);
        assert_eq!(ctx.stats().gmin_bumps, 0);
        assert_eq!(ctx.stats().symbolic, 0);

        let mut cache = CachedMna::<f64>::new();
        let (x, q) = cache.solve_verified(&layout, &job).unwrap();
        assert!(q.converged);
        assert_eq!(x, plain);
        assert_eq!(cache.stats().residual_retries, 0);
        assert_eq!(cache.stats().gmin_bumps, 0);
        assert_eq!(cache.stats().symbolic, 1);
    }

    #[test]
    fn stale_factors_escalate_to_a_fresh_point_factorization() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        // Factor honestly, then perturb the matrix under the factors: the
        // refined solve sees a residual it cannot repair with stale factors
        // and must climb to rung 2 (fresh factorization of this point).
        let mut rhs = ctx.assemble(&job);
        ctx.factor().unwrap();
        let slot = ctx.matrix_mut().find_slot(0, 0).unwrap();
        ctx.matrix_mut().values_mut()[slot] *= 1.0e6;
        let q = ctx.solve_verified_in_place(&mut rhs).unwrap();
        assert!(q.converged);
        assert_eq!(ctx.stats().residual_retries, 1);
        assert_eq!(ctx.stats().gmin_bumps, 0);
        // The answer is the solution of the *perturbed* system.
        let mut st = Stamper::new(&layout);
        job.stamp(&mut st);
        let (trip, b) = st.finish();
        let mut csr = trip.to_csr();
        let s = csr.find_slot(0, 0).unwrap();
        csr.values_mut()[s] *= 1.0e6;
        let reference = loopscope_sparse::solve_once(&csr, &b).unwrap();
        for (a, r) in rhs.iter().zip(&reference) {
            assert!((a - r).abs() <= 1e-12 * r.abs().max(1.0), "{a} vs {r}");
        }
    }

    #[test]
    fn dead_node_column_is_rescued_by_the_gmin_rung() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        let mut rhs = ctx.assemble(&job);
        // Kill column 1 (node `b`): the system is exactly singular, so the
        // factor rungs fail and only the per-point gmin bump can rescue it.
        let m = ctx.matrix_mut();
        for (r, c) in [(0usize, 1usize), (1, 1)] {
            let slot = m.find_slot(r, c).unwrap();
            m.values_mut()[slot] = 0.0;
        }
        let q = ctx.solve_verified_in_place(&mut rhs).unwrap();
        assert!(q.converged);
        assert_eq!(ctx.stats().gmin_bumps, 1);
        assert!(rhs.iter().all(|v| v.is_finite()));
        // v(b) floats up to the bump conductance's scale — large but finite
        // and flagged through the `gmin_bumps` counter.
        assert!(rhs[1].abs() > 1.0);
    }

    #[test]
    fn singular_branch_column_exhausts_the_ladder_with_names() {
        // A layout with one branch unknown: gmin bumps only touch node
        // diagonals, so a dead branch column must surface as a name-enriched
        // singular error after the ladder runs dry.
        let mut c = Circuit::new("branch ladder");
        let a = c.node("a");
        c.add_vsource("V1", a, Circuit::GROUND, SourceSpec::dc(1.0));
        c.add_resistor("R1", a, Circuit::GROUND, 1.0e3);
        let layout = MnaLayout::new(&c);
        struct VsrcJob;
        impl AssembleMna<f64> for VsrcJob {
            fn stamp<S: MatrixSink<f64>>(&self, st: &mut Stamper<'_, f64, S>) {
                st.add_var_var(0, 0, 1.0e-3);
                st.add_var_var(0, 1, 1.0);
                st.add_var_var(1, 0, 1.0);
                st.add_rhs_var(1, 1.0);
            }
        }
        let plan = SweepPlan::<f64>::build(&layout, &VsrcJob).unwrap();
        let mut ctx = plan.context();
        let mut rhs = ctx.assemble(&VsrcJob);
        // Kill the branch column (var 1 = I(V1)).
        let m = ctx.matrix_mut();
        let slot = m.find_slot(0, 1).unwrap();
        m.values_mut()[slot] = 0.0;
        let err = ctx.solve_verified_in_place(&mut rhs).unwrap_err();
        assert_eq!(
            err,
            SpiceError::SingularSystem {
                unknown: "I(V1)".into(),
                column: 1
            }
        );
        // Both bumps were tried (node diagonals exist) before giving up.
        assert_eq!(ctx.stats().gmin_bumps, GMIN_BUMP_LADDER.len());
    }

    #[test]
    fn nan_stamp_aborts_immediately_with_names() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let plan = SweepPlan::<f64>::build(&layout, &job).unwrap();
        let mut ctx = plan.context();
        let mut rhs = ctx.assemble(&job);
        let m = ctx.matrix_mut();
        let slot = m.find_slot(0, 1).unwrap();
        m.values_mut()[slot] = f64::NAN;
        let err = ctx.solve_verified_in_place(&mut rhs).unwrap_err();
        assert_eq!(
            err,
            SpiceError::NonFiniteStamp {
                row: "V(a)".into(),
                col: "V(b)".into(),
                row_index: 0,
                col_index: 1
            }
        );
        // No rung can repair a NaN: the ladder must not have escalated.
        assert_eq!(ctx.stats().residual_retries, 0);
        assert_eq!(ctx.stats().gmin_bumps, 0);

        // The cached driver takes the identical path.
        let mut cache = CachedMna::<f64>::new();
        let mut b = cache.assemble(&layout, &job);
        let m = cache.matrix_mut();
        let slot = m.find_slot(0, 1).unwrap();
        m.values_mut()[slot] = f64::NAN;
        let cache_err = cache.verify_assembled(&layout, &mut b).unwrap_err();
        assert_eq!(cache_err, err);
    }

    #[test]
    fn cached_mna_gmin_rescue_adopts_and_recovers() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 1.0e-3,
            g2: 2.0e-3,
            extra_entry: false,
        };
        let mut cache = CachedMna::<f64>::new();
        let mut rhs = cache.assemble(&layout, &job);
        let m = cache.matrix_mut();
        for (r, c) in [(0usize, 1usize), (1, 1)] {
            let slot = m.find_slot(r, c).unwrap();
            m.values_mut()[slot] = 0.0;
        }
        let q = cache.verify_assembled(&layout, &mut rhs).unwrap();
        assert!(q.converged);
        assert_eq!(cache.stats().gmin_bumps, 1);
        // A later healthy solve recovers the normal fast path.
        let (x, q2) = cache.solve_verified(&layout, &job).unwrap();
        assert!(q2.converged);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn solve_matches_from_scratch_build() {
        let (_c, layout) = two_node_layout();
        let job = LadderJob {
            g1: 3.0e-3,
            g2: 1.5e-3,
            extra_entry: true,
        };
        // Naive path.
        let mut st = Stamper::new(&layout);
        job.stamp(&mut st);
        let (trip, rhs) = st.finish();
        let naive = loopscope_sparse::solve_once(&trip.to_csr(), &rhs).unwrap();
        // Cached path, twice (second solve exercises the slot sink).
        let mut cache = CachedMna::<f64>::new();
        cache.solve(&layout, &job).unwrap();
        let cached = cache.solve(&layout, &job).unwrap();
        for (a, b) in naive.iter().zip(&cached) {
            assert!((a - b).abs() < 1e-15, "{a} vs {b}");
        }
    }
}

//! Sparse matrices and a symbolic/numeric sparse LU solver for circuit
//! simulation.
//!
//! Modified nodal analysis (MNA) produces matrices that are extremely sparse
//! — each circuit element touches at most a handful of rows/columns — and the
//! stability analyses in `loopscope-spice` factor the *same pattern* hundreds
//! of times per sweep (one factorization per frequency point, Newton
//! iteration or timestep). The crate is organised around that workload:
//!
//! * [`TripletMatrix`] — a coordinate-format accumulator that element
//!   "stamps" append to; duplicate entries are summed, which matches how MNA
//!   stamps superpose. Used once per circuit structure to discover the
//!   pattern.
//! * [`CsrMatrix`] — compressed sparse row storage used for matrix-vector
//!   products and as the input to factorization. Values can be rewritten in
//!   place ([`CsrMatrix::zero_values`], [`CsrMatrix::find_slot`]) so repeated
//!   assemblies over a fixed pattern allocate nothing.
//! * [`ordering`] — fill-reducing elimination orderings (minimum degree on
//!   the `A + Aᵀ` pattern, as KLU applies to circuit matrices). Computed once
//!   per circuit structure, they keep the LU fill — and therefore the cost of
//!   every numeric refactorization — near the structural optimum.
//! * [`btf`] — block upper-triangular form (maximum transversal + Tarjan
//!   SCC, KLU's outermost structural move). Block-structured circuits —
//!   cascaded stages, buffered sub-circuits — factor as many small diagonal
//!   blocks via [`SparseLu::factor_with_symbolic_btf`], with the cross-block
//!   entries stored raw (zero fill) for the block back-substitution;
//!   irreducible patterns degenerate to the plain ordered factorization.
//!   [`SparseLu::solve_block_into`] solves a whole panel of right-hand
//!   sides per traversal — bitwise identical, column for column, to
//!   independent [`SparseLu::solve_into`] calls. When only the diagonal of
//!   `A⁻¹` is wanted (driving-point impedances),
//!   [`SymbolicLu::driving_point_schedule`] lists once per pattern which
//!   substitution rows each panel of unit injections depends on, and
//!   [`SparseLu::solve_driving_points_into`] runs just those rows, through
//!   the same row arithmetic, so each entry stays bitwise equal to the full
//!   solve's. The schedule applies only to factorizations sharing its
//!   pattern ([`DrivingPointSchedule::applies_to`]): a fresh-pivoting
//!   fallback needs full solves.
//! * [`SparseLu`] — flat-storage LU. [`SparseLu::factor`] runs partial
//!   pivoting in natural column order;
//!   [`SparseLu::factor_ordered`] eliminates columns in a fill-reducing order
//!   with KLU-style relative threshold pivoting, swapping rows only when
//!   numerics demand it. A first call to [`SparseLu::factor_with_symbolic`]
//!   (or [`SparseLu::factor_with_symbolic_ordered`]) captures the row and
//!   column permutations plus the fill pattern as a [`SymbolicLu`]; every
//!   later matrix with the same structure is factored by the numeric-only
//!   [`SparseLu::refactor`] — or, allocation-free, by
//!   [`SparseLu::refactor_into`] with a reusable [`LuWorkspace`] — which
//!   skips pivot search and fill discovery entirely and falls back to fresh
//!   pivoting only when a pivot degrades numerically. Solves are
//!   allocation-free through [`SparseLu::solve_into`].
//! * [`gmres`] — the iterative escape hatch behind the [`SolverBackend`]
//!   seam: restarted GMRES(m) over a matrix-free [`SparseOperator`],
//!   right-preconditioned by a *stale* [`SparseLu`] (the factorization of a
//!   nearby matrix, e.g. a sweep group's anchor frequency). When successive
//!   systems differ by a small perturbation, a handful of preconditioned
//!   triangular solves replaces the per-system refactorization; callers
//!   verify the returned backward error and fall back to the direct path
//!   when the Krylov iteration misses.
//!
//! The scalar abstraction [`Scalar`] is implemented for `f64` (DC and
//! transient analyses) and [`Complex64`] (AC analysis). The numeric hot
//! loops live in [`kernels`]: the refactorization's scatter axpy, the
//! substitution fold and the batched lane updates run its portable scalar
//! loops, and the panel update of the blocked and driving-point solves —
//! routed through `Scalar`'s `kernel_panel_*` surface — also has an
//! explicitly vectorized AVX2 backend. The backend is recorded per
//! [`SymbolicLu`] at build time ([`kernels::selected_backend`], overridable
//! with the `LOOPSCOPE_KERNEL` environment knob) and the two backends are
//! bit-identical on finite data, so every determinism guarantee in the
//! workspace holds with SIMD active.
//!
//! # Example
//!
//! ```
//! use loopscope_sparse::{TripletMatrix, SparseLu};
//!
//! // 2x2 system: [2 1; 1 3]·x = [5, 10]  →  x = [1, 3]
//! let mut t = TripletMatrix::<f64>::new(2, 2);
//! t.push(0, 0, 2.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let (lu, symbolic) = SparseLu::factor_with_symbolic(&t.to_csr())?;
//! let x = lu.solve(&[5.0, 10.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
//!
//! // Same pattern, new values: numeric-only refactorization.
//! let mut t2 = TripletMatrix::<f64>::new(2, 2);
//! t2.push(0, 0, 4.0);
//! t2.push(0, 1, 1.0);
//! t2.push(1, 0, 1.0);
//! t2.push(1, 1, 5.0);
//! let lu2 = SparseLu::refactor(&symbolic, &t2.to_csr())?;
//! assert!(lu2.refactored());
//! let x2 = lu2.solve(&[5.0, 6.0])?;
//! assert!((x2[0] - 1.0).abs() < 1e-12 && (x2[1] - 1.0).abs() < 1e-12);
//! # Ok::<(), loopscope_sparse::SolveError>(())
//! ```

// `unsafe` is denied everywhere except the [`kernels`] module, which carries
// the `core::arch` SIMD intrinsics behind a scoped `#[allow(unsafe_code)]`
// (a crate-level `forbid` would make that exception impossible).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod btf;
mod csr;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod gmres;
pub mod kernels;
mod lu;
pub mod ordering;
mod scalar;
mod triplet;

pub use csr::CsrMatrix;
pub use gmres::{
    gmres_solve_into, GmresOptions, GmresOutcome, GmresWorkspace, SolverBackend, SparseOperator,
};
pub use kernels::KernelBackend;
pub use lu::{
    normwise_backward_error, solve_once, BatchLaneStatus, BatchedLu, DrivingPointSchedule,
    LuWorkspace, RefineWorkspace, SolveError, SolveQuality, SparseLu, SymbolicLu,
    ORDERED_PIVOT_THRESHOLD, REFINE_BACKWARD_TOLERANCE, REFINE_MAX_STEPS,
};
pub use scalar::Scalar;
pub use triplet::TripletMatrix;

pub use loopscope_math::Complex64;

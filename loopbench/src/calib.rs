//! Machine-speed calibration.
//!
//! On a shared host the speed of a virtual CPU drifts by up to 2× over
//! seconds, as neighbours load the physical cores. A fixed compute kernel,
//! which lives in this harness and never changes with the library, is timed
//! between requests; dividing a request's wall time by the kernel time around
//! it removes the drift. Reported times are "reference milliseconds": wall
//! time scaled to a machine on which one kernel run takes
//! [`REFERENCE_KERNEL_MS`]. Raw wall-clock figures are reported next to them.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference speed: roughly one run of
/// [`kernel`] on an unloaded 2.1 GHz Xeon (family 6, model 207) vCPU.
pub const REFERENCE_KERNEL_MS: f64 = 0.05;

const N: usize = 64;
/// Fewest kernel runs per thread in a sample, so thread start-up stays a
/// small share of it.
const MIN_RUNS: usize = 8;
/// Samples taken and discarded when a clock starts: the first thread
/// spawns of a young process are slow and would skew the first regions.
const WARM_UP_SAMPLES: usize = 3;
/// A sample lasts about this share of the region before it, so it is exposed
/// to the host's scheduling hiccups at a comparable rate.
const SAMPLE_SHARE: f64 = 0.1;

/// Dense LU without pivoting of a diagonally dominant 64×64 matrix: floating
/// point bound, L1 resident, about 87 000 multiply-adds.
fn kernel(a: &mut [f64]) -> f64 {
    for (i, v) in a.iter_mut().enumerate() {
        *v = ((i * 7919) % 1000) as f64 / 1000.0 + if i % (N + 1) == 0 { N as f64 } else { 0.0 };
    }
    for k in 0..N {
        let pivot = a[k * N + k];
        for i in k + 1..N {
            let f = a[i * N + k] / pivot;
            for j in k + 1..N {
                a[i * N + j] -= f * a[k * N + j];
            }
        }
    }
    a[N * N - 1]
}

/// Runs the kernel `count` times on the calling thread.
fn runs(count: usize) {
    let mut a = vec![0.0; N * N];
    for _ in 0..count {
        black_box(kernel(black_box(&mut a)));
    }
}

/// Times regions and the kernel around them, on as many threads as a
/// request keeps busy. The sample after one region serves as the sample
/// before the next.
#[derive(Debug, Clone)]
pub struct Clock {
    threads: usize,
    last_kernel_ms: f64,
}

impl Clock {
    /// A clock for regions that keep `threads` threads busy.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        for _ in 0..WARM_UP_SAMPLES {
            sample_ms(threads, MIN_RUNS);
        }
        Self {
            threads,
            last_kernel_ms: sample_ms(threads, MIN_RUNS),
        }
    }

    /// Runs `f` and returns its output and its timing.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.last_kernel_ms;
        let t0 = Instant::now();
        let out = f();
        let wall_ms = t0.elapsed().as_secs_f64() * 1.0e3;
        let count = (SAMPLE_SHARE * wall_ms / self.last_kernel_ms).round();
        self.last_kernel_ms = sample_ms(self.threads, (count as usize).clamp(MIN_RUNS, 1000));
        let kernel_ms = 0.5 * (before + self.last_kernel_ms);
        (
            out,
            Timing {
                wall_ms,
                reference_ms: wall_ms * REFERENCE_KERNEL_MS / kernel_ms,
                kernel_ms,
            },
        )
    }
}

/// One sample, ms per kernel run: the wall time of `count` kernel runs on
/// each of `threads` threads, spawned and joined the way the library's
/// worker pool is, so scheduling delays count as they do for a request. A
/// single-thread sample runs on the calling thread, where the request runs.
fn sample_ms(threads: usize, count: usize) -> f64 {
    let t0 = Instant::now();
    if threads == 1 {
        runs(count);
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || runs(count));
            }
        });
    }
    t0.elapsed().as_secs_f64() * 1.0e3 / count as f64
}

/// A timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Wall time, ms.
    pub wall_ms: f64,
    /// Wall time scaled to the reference speed, ms.
    pub reference_ms: f64,
    /// Mean calibration kernel time around the region, ms.
    pub kernel_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_scaling_is_consistent() {
        let mut a = vec![0.0; N * N];
        let x = kernel(&mut a);
        assert_eq!(x, kernel(&mut a));
        assert!(x.is_finite() && x > 0.0);
        for threads in [1, 2] {
            let (v, t) = Clock::new(threads).time(|| 7);
            assert_eq!(v, 7);
            assert!(t.kernel_ms > 0.0);
            let scaled = t.wall_ms * REFERENCE_KERNEL_MS / t.kernel_ms;
            assert!((t.reference_ms - scaled).abs() <= 1e-12 * scaled.max(1.0));
        }
    }
}

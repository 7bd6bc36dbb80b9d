//! Built-in micro-benchmark harness: warmup + median-of-N on the
//! monotonic clock.
//!
//! Dependency-free, so the workspace builds and benches fully offline
//! (see "Dependencies" in `DESIGN.md`). Each `[[bench]]` target has
//! `harness = false` and drives this module from its own `main`; run
//! them with `cargo bench`.

use std::time::{Duration, Instant};

/// Timing summary of one benchmark case.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Case name (`group/param` by convention).
    pub name: String,
    /// Median of the timed samples.
    pub median: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Timed samples taken (excluding warmup).
    pub samples: usize,
}

impl BenchResult {
    /// Median in fractional milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median.as_secs_f64() * 1e3
    }
}

/// Time one invocation of `f` on the monotonic clock.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (Duration, R) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (start.elapsed(), out)
}

/// Run `warmup` untimed then `samples` timed invocations of `f`;
/// the reported figure is the median, which is robust to the odd
/// scheduler hiccup a mean would absorb.
pub fn bench<R>(
    name: &str,
    warmup: usize,
    samples: usize,
    mut f: impl FnMut() -> R,
) -> BenchResult {
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let samples = samples.max(1);
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let (t, _) = time_once(&mut f);
        times.push(t);
    }
    times.sort_unstable();
    let median = if samples % 2 == 1 {
        times[samples / 2]
    } else {
        (times[samples / 2 - 1] + times[samples / 2]) / 2
    };
    BenchResult {
        name: name.to_string(),
        median,
        min: times[0],
        max: times[samples - 1],
        samples,
    }
}

/// [`bench()`] + a one-line aligned report on stdout.
pub fn run<R>(
    name: &str,
    warmup: usize,
    samples: usize,
    f: impl FnMut() -> R,
) -> BenchResult {
    let r = bench(name, warmup, samples, f);
    println!(
        "{:<44} median {:>10.3} ms  (min {:>10.3}, max {:>10.3}, n={})",
        r.name,
        r.median_ms(),
        r.min.as_secs_f64() * 1e3,
        r.max.as_secs_f64() * 1e3,
        r.samples
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sample_counts() {
        let mut k = 0u64;
        let r = bench("spin", 1, 5, || {
            k = k.wrapping_add(1);
            std::hint::black_box((0..100).sum::<u64>())
        });
        assert_eq!(r.samples, 5);
        assert!(r.min <= r.median && r.median <= r.max);
        // warmup (1) + samples (5)
        assert_eq!(k, 6);
        let r = bench("spin2", 0, 4, || std::hint::black_box(1 + 1));
        assert_eq!(r.samples, 4);
        assert!(r.min <= r.median && r.median <= r.max);
    }

    #[test]
    fn zero_samples_clamps_to_one() {
        let r = bench("once", 0, 0, || ());
        assert_eq!(r.samples, 1);
    }

    #[test]
    fn time_once_returns_output() {
        let (d, v) = time_once(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0 || d.is_zero());
    }
}

//! Order statistics, fits and the metric report.

use std::fmt::Write as _;

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile<T: Copy + PartialOrd + Into<f64>>(samples: &mut [T], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1].into()
}

pub fn median<T: Copy + PartialOrd + Into<f64>>(samples: &mut [T]) -> f64 {
    quantile(samples, 0.5)
}

/// Operations per window of [`windowed_quantile`].
pub const WINDOW: usize = 2000;

/// The `q`-quantile of each window of [`WINDOW`] consecutive samples, then
/// the lower quartile over windows — the latency of the quietest quarter of
/// the run; the plain quantile when the series holds fewer than four
/// windows.  On a shared virtual host the hypervisor stalls the guest for
/// milliseconds at a time, at a rate that changes with the neighbours'
/// load; a stall delays every request in flight and the backlog it leaves,
/// so most windows of a noisy run carry one.  The quietest windows measure
/// the system itself; a change that slows every request still moves them.
pub fn windowed_quantile<T: Copy + PartialOrd + Into<f64>>(samples: &[T], q: f64) -> f64 {
    if samples.len() < 4 * WINDOW {
        return quantile(&mut samples.to_vec(), q);
    }
    let mut per_window: Vec<f64> = samples
        .chunks_exact(WINDOW)
        .map(|window| quantile(&mut window.to_vec(), q))
        .collect();
    quantile(&mut per_window, 0.25)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Least-squares slope of `ln y` against `ln x` — the growth exponent of a
/// cost `y` in a size `x`.  Points with a non-positive coordinate are
/// skipped; 0 when fewer than two points remain.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return 0.0;
    }
    let n = logs.len() as f64;
    let mx = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let my = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = logs.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = logs.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every metric a run measured, in the order it was recorded.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// One `metric <name> <value> <unit>` line per recorded metric.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "metric {name} {value} {unit}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
    }

    #[test]
    fn slope_of_a_power_law() {
        let points: Vec<(f64, f64)> = (1..20).map(|x| (x as f64, (x as f64).powf(1.5))).collect();
        assert!((loglog_slope(&points) - 1.5).abs() < 1e-9);
    }
}

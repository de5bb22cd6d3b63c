//! The benchmark's own arithmetic: summary statistics, the simulated
//! slowdown and the prediction error. Kept apart from `camp_core::stats`
//! so the checks do not trust the code they check.

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentiles a tail is reported at, highest first. The grid stops at
/// p95: over 70 000- and 90 000-request `serve-online` passes on the
/// reference machine, p99.9, p99.5 and p99 moved 91 %, 6–16 % and
/// 13–18 % (IQR/median over 6–10 runs) between runs of the same code,
/// against 3 % for p95. Above p95 the figure is set by how often the shared
/// machine stalls a thread, which changes from run to run.
const TAIL_GRID: [f64; 3] = [95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_GRID`] with at least ten of `samples`
/// beyond it (50 when even p75 has fewer). With a fixed amount of work
/// per run the sample count, and so the percentile, is fixed per
/// workload.
pub fn tail_percentile(samples: usize) -> f64 {
    TAIL_GRID
        .into_iter()
        .find(|p| (100.0 - p) * samples as f64 / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Simulated slowdown of the slow-tier run over the DRAM run, from
/// cycle counts: `slow / dram − 1`.
pub fn slowdown(dram_cycles: f64, slow_cycles: f64) -> f64 {
    slow_cycles / dram_cycles - 1.0
}

/// Mean absolute error between predicted and simulated slowdowns, in
/// percentage points.
pub fn mae_pct(pairs: &[(f64, f64)]) -> f64 {
    let errors: Vec<f64> = pairs.iter().map(|(p, s)| (p - s).abs() * 100.0).collect();
    mean(&errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_and_mae_match_a_hand_computed_example() {
        // 1.5e6 cycles on CXL over 1.2e6 on DRAM: 25% slower.
        assert!((slowdown(1.2e6, 1.5e6) - 0.25).abs() < 1e-15);
        // Predictions 0.30, 0.10, 0.00 against simulated 0.25, 0.20,
        // 0.05: errors 5, 10 and 5 points, mean 20/3.
        let pairs = [(0.30, 0.25), (0.10, 0.20), (0.00, 0.05)];
        assert!((mae_pct(&pairs) - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate_and_tails_keep_ten_samples_beyond() {
        let values: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(median(&values), 3.0);
        assert_eq!(percentile(&values, 75.0), 4.0);
        assert_eq!(percentile(&values, 90.0), 4.6);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(90_000), 95.0);
        assert_eq!(tail_percentile(39), 50.0);
    }
}

//! Order statistics used for every reported timing.

/// Median of `xs` (mean of the two middle values for even lengths).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Harrell–Davis estimate of the `pct`-th percentile of `xs`, with the
/// number of samples strictly above it. `None` for an empty slice.
///
/// The estimate is a weighted mean of all order statistics: the `i`-th of
/// `n` gets the mass a Beta((n+1)p, (n+1)(1−p)) distribution puts on
/// ((i−1)/n, i/n). A single order statistic jumps whenever a few samples
/// enter or leave the middle of a lumpy distribution, such as the job
/// times of `bulk_tcp`'s 20 cells (90 to 450 ms); this estimate moves
/// smoothly instead.
pub fn percentile(xs: &[f64], pct: f64) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let p = (pct / 100.0).clamp(1e-9, 1.0 - 1e-9);
    let a = (n as f64 + 1.0) * p;
    let b = (n as f64 + 1.0) * (1.0 - p);
    // Midpoint rule inside each interval on the log density, shifted by
    // its maximum before exponentiating; the normalising constant cancels.
    const STEPS: usize = 16;
    let log_pdf: Vec<f64> = (0..n * STEPS)
        .map(|j| {
            let t = (j as f64 + 0.5) / (n * STEPS) as f64;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let peak = log_pdf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut num, mut den) = (0.0, 0.0);
    for (x, chunk) in v.iter().zip(log_pdf.chunks(STEPS)) {
        let w: f64 = chunk.iter().map(|l| (l - peak).exp()).sum();
        num += w * x;
        den += w;
    }
    let value = num / den;
    Some(Tail {
        value,
        percentile: pct,
        beyond: v.iter().filter(|&&x| x > value).count(),
        samples: n,
    })
}

/// One percentile figure with the sample counts behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The estimate.
    pub value: f64,
    /// The percentile asked for.
    pub percentile: f64,
    /// Samples strictly above the value.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_harrell_davis_percentile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // On 1..=n the Harrell–Davis p-quantile is n·p + 1/2.
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = percentile(&xs, 75.0).expect("non-empty");
        assert!((t.value - 15.5).abs() < 1e-3, "{}", t.value);
        assert_eq!((t.beyond, t.samples), (5, 20));
        let mid = percentile(&xs, 50.0).expect("non-empty").value;
        assert!((mid - 10.5).abs() < 1e-9, "{mid}");
        let flat = percentile(&[7.0; 5], 99.0).expect("non-empty").value;
        assert!((flat - 7.0).abs() < 1e-12, "{flat}");
        assert_eq!(percentile(&[], 50.0), None);
    }
}

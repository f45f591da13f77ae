//! Text rendering of experiment results: aligned tables and curve series.

/// A named data series over a shared x axis.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend name.
    pub name: String,
    /// y values, index-aligned with the x axis.
    pub ys: Vec<f64>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, ys: Vec<f64>) -> Self {
        Series {
            name: name.into(),
            ys,
        }
    }
}

/// Renders `(x, series...)` as an aligned text table.
pub fn render_curves(x_label: &str, xs: &[String], series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{x_label:>14}"));
    for s in series {
        out.push_str(&format!(" {:>16}", s.name));
    }
    out.push('\n');
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>14}"));
        for s in series {
            match s.ys.get(i) {
                Some(y) => out.push_str(&format!(" {y:>16.3}")),
                None => out.push_str(&format!(" {:>16}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Downsamples `(call, cost)` points to at most `n` evenly spaced buckets,
/// averaging within each — APH series are rendered this way so every
/// figure fits a terminal.
pub fn downsample(points: &[(u64, f64)], n: usize) -> Vec<(u64, f64)> {
    if points.len() <= n || n == 0 {
        return points.to_vec();
    }
    let chunk = points.len().div_ceil(n);
    points
        .chunks(chunk)
        .map(|c| {
            let x = c[0].0;
            let y = c.iter().map(|&(_, y)| y).sum::<f64>() / c.len() as f64;
            (x, y)
        })
        .collect()
}

/// Aligns several downsampled APH series on a common per-row index.
pub fn render_aph_series(title: &str, named: &[(String, Vec<(u64, f64)>)], rows: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("--- {title} ---\n"));
    let ds: Vec<(String, Vec<(u64, f64)>)> = named
        .iter()
        .map(|(n, pts)| (n.clone(), downsample(pts, rows)))
        .collect();
    let max_len = ds.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
    let xs: Vec<String> = (0..max_len)
        .map(|i| {
            ds.iter()
                .find_map(|(_, p)| p.get(i).map(|&(x, _)| x.to_string()))
                .unwrap_or_default()
        })
        .collect();
    let series: Vec<Series> = ds
        .into_iter()
        .map(|(n, pts)| Series::new(n, pts.into_iter().map(|(_, y)| y).collect()))
        .collect();
    out.push_str(&render_curves("call", &xs, &series));
    out
}

/// A simple aligned key/value + factor table (the Tables 6–10 layout).
pub fn render_factor_table(
    title: &str,
    baseline_label: &str,
    baseline_ticks: u64,
    pct_of_workload: f64,
    factors: &[(String, f64)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("--- {title} ---\n"));
    let (scaled, unit) = if baseline_ticks >= 1_000_000_000 {
        (baseline_ticks as f64 / 1e9, "bn")
    } else {
        (baseline_ticks as f64 / 1e6, "M")
    };
    out.push_str(&format!(
        "{baseline_label}: {scaled:.1} {unit} ticks ({pct_of_workload:.2}% of workload)\n",
    ));
    for (name, f) in factors {
        out.push_str(&format!("{name:<24} {f:>6.2}x\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downsample_preserves_small_inputs() {
        let pts = vec![(0u64, 1.0), (1, 2.0)];
        assert_eq!(downsample(&pts, 10), pts);
    }

    #[test]
    fn downsample_averages_chunks() {
        let pts: Vec<(u64, f64)> = (0..100).map(|i| (i as u64, i as f64)).collect();
        let ds = downsample(&pts, 10);
        assert_eq!(ds.len(), 10);
        assert_eq!(ds[0].0, 0);
        assert!((ds[0].1 - 4.5).abs() < 1e-9);
        assert!((ds[9].1 - 94.5).abs() < 1e-9);
    }

    #[test]
    fn render_curves_aligns_columns() {
        let xs = vec!["0".to_string(), "50".to_string()];
        let s = vec![
            Series::new("branching", vec![2.0, 10.5]),
            Series::new("no_branching", vec![4.8, 4.8]),
        ];
        let txt = render_curves("selectivity", &xs, &s);
        assert!(txt.contains("branching"));
        assert!(txt.contains("10.500"));
        assert_eq!(txt.lines().count(), 3);
    }

    #[test]
    fn render_factor_table_shapes() {
        let txt = render_factor_table(
            "Table 6",
            "Always Branching",
            57_000_000_000,
            8.58,
            &[
                ("No-Branching".into(), 1.12),
                ("Micro Adaptive".into(), 1.22),
            ],
        );
        assert!(txt.contains("57.0 bn"));
        let small = render_factor_table("T", "base", 5_000_000, 1.0, &[]);
        assert!(small.contains("5.0 M"));
        assert!(txt.contains("1.22x"));
    }

    #[test]
    fn render_aph_handles_unequal_lengths() {
        let a = ("a".to_string(), vec![(0u64, 1.0), (10, 2.0), (20, 3.0)]);
        let b = ("b".to_string(), vec![(0u64, 5.0)]);
        let txt = render_aph_series("t", &[a, b], 8);
        assert!(txt.contains("---"));
        assert!(txt.contains('-'));
    }
}

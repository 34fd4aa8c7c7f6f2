//! Table and time-series formatting: aligned columns, CSV series and
//! sparklines, so every view prints in one machine-diffable style.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use capmaestro_bench::Table;
///
/// let mut t = Table::new(vec!["Server", "Budget (W)"]);
/// t.row(vec!["SA".into(), "430".into()]);
/// let out = t.render();
/// assert!(out.contains("SA"));
/// assert!(out.lines().count() >= 3);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table {
            headers: headers.into_iter().map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        write_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Formats a set of equally-long series as CSV with a leading index
/// column (`t` by default) — the machine-readable form of a figure.
///
/// # Panics
///
/// Panics if the series lengths differ.
pub fn series_csv(index_name: &str, series: &[(&str, &[f64])]) -> String {
    let mut out = String::new();
    out.push_str(index_name);
    for (name, _) in series {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    if let Some((_, first)) = series.first() {
        for (_, s) in series {
            assert_eq!(s.len(), first.len(), "series lengths must match");
        }
        for i in 0..first.len() {
            let _ = write!(out, "{i}");
            for (_, s) in series {
                let _ = write!(out, ",{:.3}", s[i]);
            }
            out.push('\n');
        }
    }
    out
}

/// Renders a compact ASCII sparkline (eight levels) of a series averaged
/// over every `stride` samples, for at-a-glance shape checks in terminal
/// output.
///
/// # Panics
///
/// Panics if `stride == 0`.
pub fn sparkline(series: &[f64], stride: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    assert!(stride > 0, "stride must be positive");
    let series: Vec<f64> = series
        .chunks(stride)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let min = series.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = series.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (max - min).max(1e-12);
    series
        .iter()
        .map(|v| {
            let idx = (((v - min) / range) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["Server", "Priority", "Budget (W)"]);
        t.row(vec!["SA".into(), "H".into(), "430".into()]);
        t.row(vec!["SB".into(), "L".into(), "270".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Server"));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn csv_series() {
        let a = [1.0, 2.0];
        let b = [3.0, 4.0];
        let csv = series_csv("t", &[("x", &a), ("y", &b)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t,x,y");
        assert_eq!(lines[1], "0,1.000,3.000");
        assert_eq!(lines[2], "1,2.000,4.000");
    }

    #[test]
    #[should_panic(expected = "series lengths")]
    fn csv_length_mismatch_panics() {
        let a = [1.0];
        let b = [1.0, 2.0];
        let _ = series_csv("t", &[("x", &a), ("y", &b)]);
    }

    #[test]
    fn sparkline_shape_and_stride() {
        let s = sparkline(&[0.0, 0.5, 1.0], 1);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
        assert_eq!(sparkline(&[], 1), "");
        // Averages of 2: [2, 6, 9].
        assert_eq!(sparkline(&[1.0, 3.0, 5.0, 7.0, 9.0], 2), "▁▅█");
    }
}

//! Plain-text table formatting and small numeric helpers for the paper-style
//! reports `cdf-sim figure` prints.

/// Geometric mean of a slice of positive values (1.0 for empty input).
///
/// ```
/// use cdf_sim::report::geomean;
/// assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// assert_eq!(geomean(&[]), 1.0);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Formats a ratio as a signed percentage delta ("+6.1%" for 1.061).
///
/// ```
/// use cdf_sim::report::pct_delta;
/// assert_eq!(pct_delta(1.061), "+6.1%");
/// assert_eq!(pct_delta(0.95), "-5.0%");
/// ```
pub fn pct_delta(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// A simple aligned-column text table.
///
/// ```
/// use cdf_sim::report::Table;
/// let mut t = Table::new(&["workload", "ipc"]);
/// t.row(&["astar_like", "1.23"]);
/// let text = t.render();
/// assert!(text.contains("astar_like"));
/// assert!(text.lines().count() >= 3); // header, rule, row
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must have the same arity as the header).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[impl AsRef<str>]) -> &mut Table {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.as_ref().to_string()).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numeric-looking cells, left-align the rest.
                let numeric = cell
                    .chars()
                    .all(|c| c.is_ascii_digit() || "+-.%x".contains(c))
                    && !cell.is_empty();
                if numeric && i > 0 {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        // Non-positive inputs are clamped rather than producing NaN.
        assert!(geomean(&[0.0, 1.0]).is_finite());
    }

    #[test]
    fn pct_delta_rounding() {
        assert_eq!(pct_delta(1.0), "+0.0%");
        assert_eq!(pct_delta(1.0405), "+4.0%");
    }

    #[test]
    fn table_alignment_and_arity() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a", "1.0"]).row(&["longer-name", "12.5"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].contains("12.5"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        Table::new(&["a", "b"]).row(&["only-one"]);
    }
}

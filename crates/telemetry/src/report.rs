//! Plain-text table rendering for the reproduction tests: every table
//! and figure of the paper is printed in the same row/column shape it has
//! in print, so outputs can be compared side by side.

use std::fmt::Write as _;

/// A simple right-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "cell count must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Convenience for string-literal rows.
    pub fn row_str(&mut self, cells: &[&str]) -> &mut Self {
        let owned: Vec<String> = cells.iter().map(|s| s.to_string()).collect();
        self.row(&owned)
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let line: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let _ = writeln!(out, "{line}");
        let hdr: Vec<String> = (0..cols)
            .map(|c| format!(" {:>width$} ", self.headers[c], width = widths[c]))
            .collect();
        let _ = writeln!(out, "{}", hdr.join("|"));
        let _ = writeln!(out, "{line}");
        for row in &self.rows {
            let cells: Vec<String> = (0..cols)
                .map(|c| format!(" {:>width$} ", row[c], width = widths[c]))
                .collect();
            let _ = writeln!(out, "{}", cells.join("|"));
        }
        let _ = writeln!(out, "{line}");
        out
    }
}

/// Format a float with engineering-style precision for table cells.
pub fn fmt_si(v: f64) -> String {
    let a = v.abs();
    if a >= 1e12 {
        format!("{:.3}T", v / 1e12)
    } else if a >= 1e9 {
        format!("{:.3}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.3}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.3}k", v / 1e3)
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row_str(&["a", "1"]).row_str(&["longer-name", "123456"]);
        let s = t.render();
        assert!(s.contains("Demo"));
        assert!(s.contains("longer-name"));
        // All data lines have the same width.
        let widths: Vec<usize> = s
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| l.len())
            .collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    #[should_panic(expected = "cell count")]
    fn row_width_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row_str(&["only-one"]);
    }

    #[test]
    fn si_formatting() {
        assert_eq!(fmt_si(2.052e12), "2.052T");
        assert_eq!(fmt_si(2465.0e6), "2.465G");
        assert_eq!(fmt_si(6.383e6), "6.383M");
        assert_eq!(fmt_si(57.5), "57.500");
        assert_eq!(fmt_si(1500.0), "1.500k");
    }

    #[test]
    fn si_formatting_handles_negatives_and_zero() {
        assert_eq!(fmt_si(0.0), "0.000");
        assert_eq!(fmt_si(-2.052e12), "-2.052T");
        assert_eq!(fmt_si(-6.383e6), "-6.383M");
    }

    #[test]
    fn empty_and_len() {
        let mut t = Table::new("", &["a"]);
        assert!(t.is_empty());
        t.row_str(&["x"]);
        assert_eq!(t.len(), 1);
    }
}

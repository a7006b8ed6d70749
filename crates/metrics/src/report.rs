//! Plain-text table rendering for the experiment binaries.
//!
//! The benchmark harness regenerates the paper's figures as text tables
//! (one row per bar / series point). This module provides a small,
//! dependency-free table formatter.

use std::fmt;

/// A simple text table with a header row and aligned columns.
///
/// # Examples
///
/// ```
/// use leap_metrics::TextTable;
///
/// let mut table = TextTable::new(vec!["config", "median (us)", "p99 (us)"]);
/// table.add_row(vec!["D-VMM".to_string(), "38.3".to_string(), "120.0".to_string()]);
/// table.add_row(vec!["D-VMM+Leap".to_string(), "4.9".to_string(), "8.2".to_string()]);
/// let rendered = table.render();
/// assert!(rendered.contains("D-VMM+Leap"));
/// assert!(rendered.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Adds one row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated.
    pub fn add_row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            out.push_str(title);
            out.push('\n');
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_headers_and_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["1".into(), "2".into()]);
        t.add_row(vec!["3".into(), "4".into()]);
        let s = t.render();
        assert!(s.starts_with("a"));
        assert!(s.contains('1') && s.contains('4'));
    }

    #[test]
    fn title_is_printed_first() {
        let t = TextTable::new(vec!["x"]).with_title("Figure 9a");
        assert!(t.render().starts_with("Figure 9a\n"));
    }

    #[test]
    fn short_rows_are_padded_and_long_rows_truncated() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["only-one".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        let s = t.render();
        assert!(s.contains("only-one"));
        assert!(!s.contains('3'));
    }

    #[test]
    fn columns_are_aligned() {
        let mut t = TextTable::new(vec!["name", "v"]);
        t.add_row(vec!["short".into(), "1".into()]);
        t.add_row(vec!["a-much-longer-name".into(), "2".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        // The value column starts at the same offset on both data rows.
        let pos1 = lines[2].find('1').unwrap();
        let pos2 = lines[3].find('2').unwrap();
        assert_eq!(pos1, pos2);
    }
}

//! Plain-text table rendering for the `figures` binary.
//!
//! Every reproduced table/figure is ultimately printed as an aligned text
//! table so EXPERIMENTS.md can quote harness output directly.

use core::fmt;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use potemkin_obs::Table;
///
/// let mut t = Table::new(&["stage", "time (ms)"]);
/// t.row_owned(vec!["domain create".into(), "112.3".into()]);
/// t.row_owned(vec!["device setup".into(), "44.0".into()]);
/// let s = t.to_string();
/// assert!(s.contains("domain create"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
            title: None,
        }
    }

    /// Sets a title printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: &str) -> Self {
        self.title = Some(title.to_string());
        self
    }

    /// Appends a row of already-owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as CSV (RFC 4180 quoting), for plotting pipelines.
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn cell(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self.headers.iter().map(|h| cell(h)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| cell(c)).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        if let Some(title) = &self.title {
            writeln!(f, "== {title} ==")?;
        }
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{h:<width$}", width = widths[i])?;
        }
        writeln!(f)?;
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{}", "-".repeat(*w))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                // Right-align cells that look numeric, left-align text.
                let numeric =
                    cell.chars().next().is_some_and(|c| c.is_ascii_digit() || c == '-' || c == '+');
                if numeric {
                    write!(f, "{cell:>width$}", width = widths[i])?;
                } else {
                    write!(f, "{cell:<width$}", width = widths[i])?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(t: &mut Table, cells: &[&str]) {
        t.row_owned(cells.iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]).with_title("demo");
        row(&mut t, &["short", "1"]);
        row(&mut t, &["a-much-longer-name", "12345"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== demo ==");
        assert!(lines[1].starts_with("name"));
        assert!(lines[2].starts_with("----"));
        // All data lines equal width of the longest.
        assert!(lines[3].len() <= lines[4].len());
        assert!(s.contains("a-much-longer-name"));
    }

    #[test]
    fn numeric_cells_right_aligned() {
        let mut t = Table::new(&["n"]);
        row(&mut t, &["5"]);
        row(&mut t, &["50000"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2], "    5");
        assert_eq!(lines[3], "50000");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new(&["a", "b"]);
        row(&mut t, &["only-one"]);
    }

    #[test]
    fn empty_table_renders_headers() {
        let t = Table::new(&["x", "y"]);
        assert!(t.rows.is_empty());
        let s = t.to_string();
        assert!(s.contains('x'));
        assert!(s.contains('y'));
    }

    #[test]
    fn csv_export_quotes_correctly() {
        let mut t = Table::new(&["name", "note"]);
        row(&mut t, &["plain", "simple"]);
        row(&mut t, &["with,comma", "with \"quotes\""]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,note");
        assert_eq!(lines[1], "plain,simple");
        assert_eq!(lines[2], "\"with,comma\",\"with \"\"quotes\"\"\"");
    }

    #[test]
    fn csv_of_empty_table_is_header_only() {
        let t = Table::new(&["a", "b"]);
        assert_eq!(t.to_csv(), "a,b\n");
    }

    #[test]
    fn row_owned_works() {
        let mut t = Table::new(&["k", "v"]);
        t.row_owned(vec!["key".into(), format!("{:.2}", 1.5)]);
        assert_eq!(t.rows.len(), 1);
        assert!(t.to_string().contains("1.50"));
    }
}

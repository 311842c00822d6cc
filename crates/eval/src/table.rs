//! Plain-text table and CSV emitters for experiment output.

/// A simple column-aligned text table with an optional title.
///
/// ```
/// use eval_stats::table::Table;
/// let mut t = Table::new(vec!["theta".into(), "mean II".into()]);
/// t.add_row(vec!["0.5".into(), "3.21".into()]);
/// let s = t.render();
/// assert!(s.contains("theta"));
/// assert!(s.contains("3.21"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Attach a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Append a row. Rows shorter than the header are padded with empty
    /// cells; longer rows extend the width.
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(std::vec::Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let fmt_row = |row: &[String]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map_or("", String::as_str);
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (comma separation, naive quoting of cells that
    /// contain commas or quotes).
    pub fn render_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a value with a ± half-width, as figures report CIs.
pub fn pm(point: f64, half_width: f64, decimals: usize) -> String {
    format!("{point:.decimals$} ± {half_width:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a".into(), "bbbb".into()]);
        t.add_row(vec!["xxxx".into(), "y".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("a     bbbb"));
        assert!(lines[2].starts_with("xxxx  y"));
    }

    #[test]
    fn title_is_prepended() {
        let t = Table::new(vec!["x".into()]).with_title("Figure 1");
        assert!(t.render().starts_with("Figure 1\n"));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["1".into()]);
        let s = t.render();
        assert!(s.lines().count() >= 3);
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new(vec!["x".into()]);
        t.add_row(vec!["1,5".into()]);
        assert!(t.render_csv().contains("\"1,5\""));
    }

    #[test]
    fn csv_escapes_quotes() {
        let mut t = Table::new(vec!["x".into()]);
        t.add_row(vec!["say \"hi\"".into()]);
        assert!(t.render_csv().contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn pm_formats() {
        assert_eq!(pm(1.23456, 0.02, 2), "1.23 ± 0.02");
    }
}

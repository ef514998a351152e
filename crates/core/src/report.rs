//! Plain-text table rendering for experiment output, matching the
//! row/column layout of the paper's figures.

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: Vec<String>) -> Self {
        Table {
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with
    /// empty cells; longer rows are truncated to the header width.
    pub fn push_row(&mut self, mut row: Vec<String>) {
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl Extend<Vec<String>> for Table {
    fn extend<I: IntoIterator<Item = Vec<String>>>(&mut self, iter: I) {
        for row in iter {
            self.push_row(row);
        }
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::from("| ");
            for (cell, w) in cells.iter().zip(widths) {
                let pad = w - cell.chars().count();
                s.push_str(cell);
                s.push_str(&" ".repeat(pad));
                s.push_str(" | ");
            }
            s.trim_end().to_owned()
        };
        writeln!(f, "{}", line(&self.header, &widths))?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "{}", line(&sep, &widths))?;
        for row in &self.rows {
            writeln!(f, "{}", line(row, &widths))?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal, e.g. `"93.4%"`.
pub fn pct(fraction: f32) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", vec!["attack".into(), "accuracy".into()]);
        t.push_row(vec!["FGSM".into(), "93.4%".into()]);
        t.push_row(vec!["L-BFGS".into(), "91.0%".into()]);
        let rendered = t.render();
        assert!(rendered.contains("## demo"));
        assert!(rendered.contains("| attack "));
        assert!(rendered.contains("| FGSM   "));
        // Every data line has the same length (alignment).
        let lines: Vec<&str> = rendered.lines().skip(1).collect();
        let lens: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{rendered}");
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.push_row(vec!["x".into()]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        assert_eq!(t.rows()[0].len(), 2);
        assert_eq!(t.rows()[1].len(), 2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.934), "93.4%");
        assert_eq!(pct(1.0), "100.0%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn extend_pushes_rows_with_padding() {
        let mut t = Table::new("t", vec!["a".into(), "b".into()]);
        t.extend(vec![vec!["1".into()], vec!["2".into(), "3".into()]]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0].len(), 2); // padded
    }

    #[test]
    fn display_matches_render() {
        let t = Table::new("x", vec!["h".into()]);
        assert_eq!(t.to_string(), t.render());
        assert_eq!(t.title(), "x");
    }
}

//! What an artefact *is*: a named, titled table of numbers, with one
//! paper layout (`Table::text`), one CSV form (`Table::csv`) and
//! lookup by row key and column label ([`Table::value`]).
//!
//! The layout constants — widths, precisions, units, group bars, the
//! rule length — are data on the table, read off the paper-shaped
//! output the repository commits as `tables_output.txt`; the numbers
//! are plain `f64`s anyone can re-derive a claim from.

/// One column: its label, and how the paper layout prints its cells.
#[derive(Clone, Debug, PartialEq)]
pub struct Column {
    /// Header label, and the name [`Table::value`] finds the column by.
    pub label: String,
    /// Printed width, unit included.
    pub width: usize,
    /// Decimal places.
    pub precision: usize,
    /// Unit printed after the number, inside the width: `""`, `"%"`, `"x"`.
    pub unit: &'static str,
    /// Whether a ` |` group bar follows the column.
    pub bar: bool,
}

/// One artefact of the evaluation.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Artefact name, as the command line selects it (`"table2"`).
    pub name: &'static str,
    /// Heading line(s), without the final newline.
    pub heading: String,
    /// Label and printed width of the row key (`("CPUs", 5)`).
    pub key: (&'static str, usize),
    /// The columns, left to right.
    pub columns: Vec<Column>,
    /// Length of the rule under the column labels. A constant of each
    /// table's layout, not a function of the widths.
    pub rule: usize,
    /// The rows: key, then one value per column.
    pub rows: Vec<(u64, Vec<f64>)>,
    /// A line printed under the grid.
    pub note: Option<String>,
}

/// The one CSV header: a table is a list of `(row, column, value)` cells.
pub(crate) const CSV_HEADER: &str = "table,row,column,value\n";

impl Table {
    /// An empty table: add [`column`](Self::column)s, then push rows.
    pub(crate) fn new(
        name: &'static str,
        heading: impl Into<String>,
        key: (&'static str, usize),
        rule: usize,
    ) -> Self {
        Table {
            name,
            heading: heading.into(),
            key,
            columns: Vec::new(),
            rule,
            rows: Vec::new(),
            note: None,
        }
    }

    /// Append a unitless column with no bar after it; set either on the
    /// returned column.
    pub(crate) fn column(
        &mut self,
        label: impl Into<String>,
        width: usize,
        precision: usize,
    ) -> &mut Column {
        self.columns.push(Column {
            label: label.into(),
            width,
            precision,
            unit: "",
            bar: false,
        });
        self.columns.last_mut().expect("just pushed")
    }

    /// The value at row `key`, column `label`.
    pub fn value(&self, key: u64, label: &str) -> Option<f64> {
        let at = self.columns.iter().position(|c| c.label == label)?;
        let (_, values) = self.rows.iter().find(|(k, _)| *k == key)?;
        values.get(at).copied()
    }

    /// Heading, column labels and rule: everything above the rows.
    pub(crate) fn head(&self) -> String {
        let mut out = format!("{}\n{:>w$} |", self.heading, self.key.0, w = self.key.1);
        for c in &self.columns {
            out += &format!(" {:>w$}{}", c.label, bar(c), w = c.width);
        }
        out + "\n" + &"-".repeat(self.rule) + "\n"
    }

    /// The table in the paper's layout.
    pub(crate) fn text(&self) -> String {
        let mut out = self.head();
        for (key, values) in &self.rows {
            out += &format!("{key:>w$} |", w = self.key.1);
            for (c, v) in self.columns.iter().zip(values) {
                let (w, p) = (c.width - c.unit.len(), c.precision);
                out += &format!(" {v:>w$.p$}{}{}", c.unit, bar(c));
            }
            out.push('\n');
        }
        if let Some(note) = &self.note {
            out += note;
            out.push('\n');
        }
        out
    }

    /// One `table,row,column,value` line per cell, without the header.
    /// Values print in Rust's shortest round-trip form.
    pub(crate) fn cell_lines(&self) -> String {
        let mut out = String::new();
        for (key, values) in &self.rows {
            for (c, v) in self.columns.iter().zip(values) {
                out += &format!("{},{key},{},{v}\n", self.name, c.label);
            }
        }
        out
    }

    /// The table as a CSV document: [`CSV_HEADER`], then its cells.
    #[cfg(test)]
    pub(crate) fn csv(&self) -> String {
        format!("{CSV_HEADER}{}", self.cell_lines())
    }
}

fn bar(c: &Column) -> &'static str {
    if c.bar {
        " |"
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Table {
        let mut t = Table::new("demo", "Demo. Two groups.", ("CPUs", 5), 30);
        t.column("A", 6, 2).bar = true;
        t.column("share", 8, 1).unit = "%";
        t.column("cycles", 8, 0);
        t.rows.push((4, vec![1.234, 50.0, 2906.4]));
        t.rows.push((256, vec![10.0, 5.44, 311748.0]));
        t.note = Some("(a note)".into());
        t
    }

    #[test]
    fn text_is_the_paper_layout() {
        assert_eq!(
            synthetic().text(),
            "Demo. Two groups.\n\
             \x20CPUs |      A |    share   cycles\n\
             ------------------------------\n\
             \x20   4 |   1.23 |    50.0%     2906\n\
             \x20 256 |  10.00 |     5.4%   311748\n\
             (a note)\n"
        );
    }

    #[test]
    fn the_csv_is_one_header_and_one_line_per_cell() {
        let csv = synthetic().csv();
        assert!(csv.starts_with("table,row,column,value\ndemo,4,A,1.234\n"));
        assert_eq!(csv.lines().count(), 1 + 2 * 3);
        assert!(csv.lines().all(|l| l.split(',').count() == 4), "{csv}");
        assert!(csv.ends_with("demo,256,cycles,311748\n"));
    }

    #[test]
    fn value_finds_a_cell_by_key_and_label_or_nothing() {
        let t = synthetic();
        assert_eq!(t.value(256, "share"), Some(5.44));
        assert_eq!(t.value(8, "share"), None, "no such row");
        assert_eq!(t.value(4, "shares"), None, "no such column");
    }
}

//! Plain-text rendering of a grid campaign's outcomes. (The paper's
//! tables and figures lay themselves out: `crate::table::Table::text`.)

/// Render the outcomes of a grid campaign, one line per cell:
/// `label: name=value ...` for successful runs (the run's artifact
/// scalars in their fixed order) or `label: error: ...` (first line of
/// the failure) for faulted cells.
pub fn render_grid(
    runs: &[crate::spec::GridRun],
    outcomes: &[Result<crate::run::RunArtifacts, String>],
) -> String {
    let mut out = String::new();
    for (run, outcome) in runs.iter().zip(outcomes) {
        match outcome {
            Ok(art) => {
                out.push_str(&run.label);
                out.push(':');
                for (name, value) in &art.numbers {
                    out.push_str(&format!(" {name}={value}"));
                }
                out.push('\n');
            }
            Err(msg) => {
                let first = msg.lines().next().unwrap_or("unknown failure");
                out.push_str(&format!("{}: error: {first}\n", run.label));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::artifacts::{ArtifactProfile, Cells, GENERATORS};
    use crate::table::Table;

    /// The shape of artefact `name` — heading, columns, row keys — from
    /// a planning-only pass: nothing is simulated, every value is NaN.
    fn shape(name: &str) -> Table {
        let profile = ArtifactProfile::quick();
        GENERATORS
            .iter()
            .flat_map(|(_, generate)| generate(&mut Cells::default(), &profile))
            .find(|t| t.name == name)
            .expect("an artefact name")
    }

    /// `shape(name)` laid out with every value replaced by `value`.
    fn text_of(name: &str, value: f64) -> String {
        let mut t = shape(name);
        for (_, values) in &mut t.rows {
            values.fill(value);
        }
        crate::artifacts::layout(&t)
    }

    #[test]
    fn app_renderers_cover_their_studies() {
        let s = text_of("ext-app", 50.0);
        assert!(s.contains("synchronization tax") && s.contains("50.0%"));

        let s = text_of("ext-cs", 1.0);
        assert!(s.contains("critical-section") && s.contains("1.00x"));

        assert!(text_of("ext-signal", 500.0).contains("500 cycles"));

        assert!(text_of("ext-selfsched", 4242.0).contains("4242"));
    }

    #[test]
    fn renderers_do_not_panic_on_synthetic_data() {
        assert!(text_of("table2", 2.0).contains("Table 2"));
        assert!(text_of("figure5", 100.0).contains("Figure 5"));

        assert!(text_of("table3", 3.0).contains("Table 3"));
        assert!(text_of("figure6", 120.0).contains("Figure 6"));

        let s = text_of("table4", 0.5);
        assert!(s.contains("Table 4"));
        assert!(s.contains("AMO"));

        assert!(text_of("figure7", 1.0).contains("Figure 7"));
    }
}

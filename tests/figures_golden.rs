//! Figure freshness: every experiment of `leap_bench::FIGURES`, rendered
//! the way the `all_figures` binary prints its full run (banner, then the
//! quick report), must match `tests/fixtures/all_figures.txt` byte for
//! byte. Every replay is seeded, so a changed number means a changed
//! model.
//!
//! Regenerate after an *intentional* model or report change with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test figures_golden
//! ```

mod common;

use leap_bench::FIGURES;

#[test]
fn every_figure_matches_the_committed_report() {
    let mut rendered = String::new();
    for fig in &FIGURES {
        rendered.push_str(&format!(
            "==================== {} ====================\n{}\n",
            fig.title,
            (fig.run)(true)
        ));
    }
    common::assert_fixture_fresh("all_figures.txt", &rendered);
}

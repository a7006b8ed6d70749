//! Helpers shared by the integration tests that pin committed fixtures.

use std::path::PathBuf;

/// The path of `name` under `tests/fixtures`.
pub fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Checks that the committed fixture `name` holds exactly `rendered`, byte
/// for byte. With `REGEN_GOLDEN` set in the environment it rewrites the
/// fixture with `rendered` instead.
pub fn assert_fixture_fresh(name: &str, rendered: &str) {
    let path = fixture(name);
    let regenerate = format!(
        "REGEN_GOLDEN=1 cargo test --test {}",
        env!("CARGO_CRATE_NAME")
    );
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); create it with: {regenerate}",
            path.display()
        )
    });
    if rendered == committed {
        return;
    }
    let (line, ours, theirs) = rendered
        .lines()
        .zip(committed.lines())
        .enumerate()
        .find(|(_, (ours, theirs))| ours != theirs)
        .map(|(i, (ours, theirs))| (i + 1, ours, theirs))
        .unwrap_or((
            rendered.lines().count().min(committed.lines().count()) + 1,
            "<end or trailing bytes differ>",
            "<end or trailing bytes differ>",
        ));
    panic!(
        "tests/fixtures/{name} drifted from the rendered output at line {line}:\n  \
         rendered:  {ours}\n  committed: {theirs}\n\
         if the change is intentional, regenerate with: {regenerate}"
    );
}

//! The determinism lints (README *Determinism lints*) reach a crate only
//! when its manifest opts in with `[lints] workspace = true`, and cargo
//! does not require that of a member. This test does, for the root
//! package and every workspace member outside `vendor/`.

use std::path::Path;

/// The `members = [...]` entries of the root manifest.
fn members(root_manifest: &str) -> Vec<String> {
    let start = root_manifest
        .find("\nmembers = [")
        .expect("the root Cargo.toml lists its members");
    let list = &root_manifest[start + 1..];
    let end = list.find(']').expect("the members list is closed");
    list[..end]
        .lines()
        .skip(1)
        .filter_map(|l| l.trim().strip_prefix('"')?.strip_suffix("\","))
        .map(str::to_string)
        .collect()
}

fn inherits_workspace_lints(manifest: &str) -> bool {
    manifest.split("\n[").any(|table| {
        let mut lines = table.lines();
        lines.next() == Some("lints]") && lines.any(|l| l.trim() == "workspace = true")
    })
}

#[test]
fn every_non_vendor_crate_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
    assert!(inherits_workspace_lints(&root_manifest), "root Cargo.toml");
    let members = members(&root_manifest);
    assert!(members.iter().any(|m| m == "crates/core"), "{members:?}");
    for member in members.iter().filter(|m| !m.starts_with("vendor/")) {
        let path = root.join(member).join("Cargo.toml");
        let manifest = std::fs::read_to_string(&path).unwrap();
        assert!(
            inherits_workspace_lints(&manifest),
            "{member}/Cargo.toml lacks `[lints] workspace = true`"
        );
    }
}

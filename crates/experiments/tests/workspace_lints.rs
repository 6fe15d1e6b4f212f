//! `[workspace.lints]` reaches a package only if its manifest says
//! `[lints] workspace = true`; one that omits the table silently opts
//! out of `forbid(unsafe_code)` and the clippy denies. This is the half
//! of the invariant the toolchain does not check itself. The root
//! manifest stays virtual, so that `cargo test` at the root tests every
//! member rather than one root package.

use std::path::Path;

/// The body of `[name]` in `manifest`: the lines up to the next header.
fn table<'a>(manifest: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|line| *line == format!("[{name}]"))?;
    Some(lines.take_while(|line| !line.starts_with('[')).collect())
}

#[test]
fn every_workspace_package_inherits_the_workspace_lints() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|err| panic!("{}: {err}", path.display()))
    };
    let workspace = read(&root.join("Cargo.toml"));
    let forbidden = table(&workspace, "workspace.lints.rust").expect("[workspace.lints.rust]");
    assert!(
        forbidden.contains(&r#"unsafe_code = "forbid""#),
        "the workspace no longer forbids unsafe code: {forbidden:?}"
    );
    assert!(
        table(&workspace, "package").is_none(),
        "the root manifest is a package again: `cargo test` there would test only it"
    );

    let mut manifests = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is listed") {
        let manifest = entry.expect("a directory entry").path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 10, "found only {manifests:?}");
    for path in manifests {
        let manifest = read(&path);
        assert!(
            table(&manifest, "lints").is_some_and(|body| body.contains(&"workspace = true")),
            "{} lacks `[lints] workspace = true`",
            path.display()
        );
    }
}

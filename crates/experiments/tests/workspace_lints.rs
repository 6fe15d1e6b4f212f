//! `[workspace.lints]` reaches a package only if its manifest says
//! `[lints] workspace = true`; one that omits the table silently opts
//! out of `forbid(unsafe_code)` and the clippy denies. This is the half
//! of the invariant the toolchain does not check itself. The root
//! manifest stays virtual, so that `cargo test` at the root tests every
//! member rather than one root package. It also holds every source
//! file to a size a reader can take in at once, and keeps no dead code
//! behind a lint exception.

use std::path::{Path, PathBuf};

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

/// Every `.rs` file under `dir`, at any depth.
fn rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|err| panic!("{}: {err}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            rust_files(&path, files);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`.
fn source_files() -> Vec<PathBuf> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ is listed") {
        let src = entry.expect("a directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "found only {files:?}");
    files
}

/// No file under `crates/*/src` has more than 1 200 lines before its
/// tests: an inline `#[cfg(test)] mod … {`, or the whole file when a
/// `#[cfg(test)] mod …;` names it. A file that outgrows the limit is
/// split along what it does, as the engine is one module per phase.
#[test]
fn no_source_file_has_more_than_1200_lines_outside_its_tests() {
    let files = source_files();
    let (mut test_only, mut over) = (Vec::new(), Vec::new());
    for path in &files {
        let text = std::fs::read_to_string(path).expect("a readable source file");
        let lines: Vec<&str> = text.lines().map(str::trim).collect();
        let mut outside = lines.len();
        for (at, pair) in lines.windows(2).enumerate() {
            let Some(module) = pair[1]
                .strip_prefix("mod ")
                .filter(|_| pair[0] == "#[cfg(test)]")
            else {
                continue;
            };
            if let Some(name) = module.strip_suffix(';') {
                // `a/mod.rs` and `lib.rs` name `a/x.rs`; `a/b.rs` names `a/b/x.rs`.
                let (dir, stem) = (path.with_file_name(""), path.file_stem().expect("a stem"));
                let dir = if ["mod", "lib", "main"].map(Some).contains(&stem.to_str()) {
                    dir
                } else {
                    dir.join(stem)
                };
                test_only.push(dir.join(format!("{name}.rs")));
            } else if module.ends_with('{') {
                outside = outside.min(at);
            }
        }
        if outside > 1200 {
            over.push((path.clone(), outside));
        }
    }
    over.retain(|(path, _)| !test_only.contains(path));
    assert!(over.is_empty(), "lines outside tests over 1 200: {over:?}");
}

/// Code nothing calls is deleted, not kept under a `dead_code`
/// exception; code only tests or debug asserts call is compiled for
/// them alone (`#[cfg(test)]`, `#[cfg(any(debug_assertions, test))]`).
/// An attribute's lint list may span lines and name other lints first,
/// so each `allow(…)` / `expect(…)` list is read with its whitespace
/// removed.
#[test]
fn no_source_file_allows_dead_code() {
    let mut found = Vec::new();
    for path in source_files() {
        let text = std::fs::read_to_string(&path).expect("a readable source file");
        let text: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let exempts = ["allow(", "expect("].iter().any(|open| {
            text.match_indices(open).any(|(at, _)| {
                let list = &text[at + open.len()..];
                let list = &list[..list.find(')').unwrap_or(list.len())];
                list.split(',').any(|lint| lint == "dead_code")
            })
        });
        if exempts {
            found.push(path);
        }
    }
    assert!(
        found.is_empty(),
        "dead code kept under a lint exception: {found:?}"
    );
}

//! The `workspace-hygiene` pass: every member crate's dependencies must
//! resolve through `[workspace.dependencies]` (so the offline vendored
//! shims stay unified at a single declaration site), and each vendored
//! shim the workspace declares must actually exist under `vendor/` with
//! a matching package name.
//!
//! The parser is a deliberately small line-based TOML subset — the repo's
//! manifests keep one dependency per line, and the pass diagnoses (rather
//! than mis-parses) anything fancier.

use crate::Diagnostic;
use std::path::Path;

const RULE: &str = "workspace-hygiene";

/// Runs the pass over the root manifest, member manifests, and vendor
/// shims.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    let Ok(root_text) = std::fs::read_to_string(&root_manifest) else {
        diags.push(Diagnostic::new(
            &root_manifest,
            0,
            RULE,
            "workspace root Cargo.toml is missing or unreadable",
        ));
        return Ok(diags);
    };

    let workspace_deps = section_entries(&root_text, "workspace.dependencies");
    if workspace_deps.is_empty() {
        diags.push(Diagnostic::new(
            &root_manifest,
            0,
            RULE,
            "no [workspace.dependencies] section — member crates have nothing to unify against",
        ));
    }
    let dep_names: Vec<&str> = workspace_deps.iter().map(|e| e.name.as_str()).collect();

    // Vendored shims named by the workspace must exist and match by name.
    for entry in &workspace_deps {
        if let Some(path) = &entry.path {
            if path.starts_with("vendor/") {
                check_vendor_shim(root, entry, path, &mut diags);
            }
        }
    }

    // The root package's own dependency sections follow the same rule.
    check_member_manifest(&root_manifest, &root_text, &dep_names, &mut diags);

    // Member crates under crates/.
    for dir in crate::subdirs(&root.join("crates")) {
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            diags.push(Diagnostic::new(
                &manifest,
                0,
                RULE,
                "member crate has no readable Cargo.toml",
            ));
            continue;
        };
        check_member_manifest(&manifest, &text, &dep_names, &mut diags);
    }

    // Vendor crates may depend on sibling shims by relative path (they sit
    // below the workspace-dependency layer), but nothing else.
    for dir in crate::subdirs(&root.join("vendor")) {
        let manifest = dir.join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&manifest) else {
            continue;
        };
        for (lineno, entry) in numbered_section_entries(&text, "dependencies") {
            match &entry.path {
                Some(p) if p.starts_with("../") => {}
                Some(p) => diags.push(Diagnostic::new(
                    &manifest,
                    lineno,
                    RULE,
                    format!(
                        "vendored shim dependency `{}` points outside vendor/ (path `{p}`)",
                        entry.name
                    ),
                )),
                None if !entry.workspace => diags.push(Diagnostic::new(
                    &manifest,
                    lineno,
                    RULE,
                    format!(
                        "vendored shim dependency `{}` must be a sibling path dep, not a registry dep",
                        entry.name
                    ),
                )),
                None => {}
            }
        }
    }

    Ok(diags)
}

fn check_vendor_shim(root: &Path, entry: &DepEntry, path: &str, diags: &mut Vec<Diagnostic>) {
    let shim_manifest = root.join(path).join("Cargo.toml");
    let Ok(text) = std::fs::read_to_string(&shim_manifest) else {
        diags.push(Diagnostic::new(
            &root.join("Cargo.toml"),
            0,
            RULE,
            format!(
                "[workspace.dependencies] `{}` points at `{path}` but no shim manifest exists there",
                entry.name
            ),
        ));
        return;
    };
    let package_name = section_entries(&text, "package")
        .into_iter()
        .find(|e| e.name == "name")
        .and_then(|e| e.value_string);
    if package_name.as_deref() != Some(entry.name.as_str()) {
        diags.push(Diagnostic::new(
            &shim_manifest,
            0,
            RULE,
            format!(
                "shim package name {:?} does not match workspace dependency `{}`",
                package_name.unwrap_or_default(),
                entry.name
            ),
        ));
    }
}

/// Checks one member manifest: every entry in a dependency section must
/// carry `workspace = true` and name a key that exists in
/// `[workspace.dependencies]`.
fn check_member_manifest(
    manifest: &Path,
    text: &str,
    workspace_deps: &[&str],
    diags: &mut Vec<Diagnostic>,
) {
    for section in ["dependencies", "dev-dependencies", "build-dependencies"] {
        for (lineno, entry) in numbered_section_entries(text, section) {
            if !entry.workspace {
                diags.push(Diagnostic::new(
                    manifest,
                    lineno,
                    RULE,
                    format!(
                        "dependency `{}` bypasses [workspace.dependencies] — use `{}.workspace = true`",
                        entry.name, entry.name
                    ),
                ));
            } else if !workspace_deps.contains(&entry.name.as_str()) {
                diags.push(Diagnostic::new(
                    manifest,
                    lineno,
                    RULE,
                    format!(
                        "dependency `{}` is not declared in [workspace.dependencies]",
                        entry.name
                    ),
                ));
            }
        }
    }
}

/// One `name = …` entry in a manifest section.
pub(crate) struct DepEntry {
    pub(crate) name: String,
    /// `true` if the entry resolves via `workspace = true`.
    pub(crate) workspace: bool,
    /// The `path = "…"` component, if any.
    pub(crate) path: Option<String>,
    /// The value when it is a plain string (`name = "1.0"`).
    pub(crate) value_string: Option<String>,
}

pub(crate) fn section_entries(text: &str, section: &str) -> Vec<DepEntry> {
    numbered_section_entries(text, section)
        .into_iter()
        .map(|(_, e)| e)
        .collect()
}

/// Parses `name = value` lines inside `[section]`, keeping 1-indexed line
/// numbers. Handles the dotted form `name.workspace = true` and inline
/// tables on a single line.
fn numbered_section_entries(text: &str, section: &str) -> Vec<(usize, DepEntry)> {
    let mut entries = Vec::new();
    let mut in_section = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_section = line == format!("[{section}]");
            continue;
        }
        if !in_section || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((lhs, rhs)) = line.split_once('=') else {
            continue;
        };
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        let (name, dotted_key) = match lhs.split_once('.') {
            Some((n, k)) => (n.trim(), Some(k.trim())),
            None => (lhs, None),
        };
        let workspace = dotted_key == Some("workspace") && rhs == "true"
            || rhs.contains("workspace") && rhs.contains("true") && rhs.starts_with('{');
        let path = if dotted_key == Some("path") {
            Some(unquote(rhs))
        } else {
            inline_table_value(rhs, "path")
        };
        let value_string = (dotted_key.is_none() && rhs.starts_with('"')).then(|| unquote(rhs));
        entries.push((
            idx + 1,
            DepEntry {
                name: name.to_owned(),
                workspace,
                path,
                value_string,
            },
        ));
    }
    entries
}

/// Extracts `key = "value"` from a single-line inline table.
fn inline_table_value(rhs: &str, key: &str) -> Option<String> {
    if !rhs.starts_with('{') {
        return None;
    }
    let at = crate::lexer::find_word(rhs, key, 0)?;
    let rest = rhs[at + key.len()..].trim_start().strip_prefix('=')?;
    Some(unquote(rest.trim_start()))
}

fn unquote(value: &str) -> String {
    let value = value.trim();
    let value = value.strip_prefix('"').unwrap_or(value);
    match value.find('"') {
        Some(end) => value[..end].to_owned(),
        None => value.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_dotted_and_inline_entries() {
        let text = "[dependencies]\nproptest.workspace = true\nrand = { workspace = true }\nlocal = { path = \"../x\" }\nplain = \"1.0\"\n";
        let entries = section_entries(text, "dependencies");
        assert_eq!(entries.len(), 4);
        assert!(entries[0].workspace);
        assert!(entries[1].workspace);
        assert_eq!(entries[2].path.as_deref(), Some("../x"));
        assert_eq!(entries[3].value_string.as_deref(), Some("1.0"));
    }

    #[test]
    fn flags_non_workspace_dep() {
        let mut diags = Vec::new();
        check_member_manifest(
            Path::new("crates/x/Cargo.toml"),
            "[dependencies]\nrand = \"0.8\"\n",
            &["rand"],
            &mut diags,
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "workspace-hygiene");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn accepts_workspace_dep() {
        let mut diags = Vec::new();
        check_member_manifest(
            Path::new("crates/x/Cargo.toml"),
            "[dependencies]\nrand.workspace = true\n",
            &["rand"],
            &mut diags,
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn flags_unknown_workspace_key() {
        let mut diags = Vec::new();
        check_member_manifest(
            Path::new("crates/x/Cargo.toml"),
            "[dependencies]\nmystery.workspace = true\n",
            &["rand"],
            &mut diags,
        );
        assert_eq!(diags.len(), 1);
    }
}

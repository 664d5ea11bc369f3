//! # eavm-lint — workspace invariant checker
//!
//! Statically enforces the source-level invariants every bit-exact
//! guarantee in this reproduction rests on: deterministic replay vs
//! `Simulation::run`, replay unchanged with telemetry enabled,
//! byte-identical chaos under a fixed fault seed, and byte-identical
//! verdict logs across crash/recovery. Replay tests catch a violated
//! invariant only when a seed happens to exercise it; this tool catches
//! the violation at the source line, before it ships.
//!
//! The rules (see [`Rule`]):
//!
//! | rule | invariant | default scope |
//! |------|-----------|---------------|
//! | D1   | no `Instant::now`/`SystemTime::now` | everything but `crates/bench` |
//! | D2   | no OS randomness (`thread_rng`, ...) | everywhere |
//! | D3   | no `HashMap`/`HashSet` | replay-critical crates, non-test |
//! | D4   | no float `==`/`!=`, no `partial_cmp().unwrap()` | replay-critical crates, non-test |
//! | P1   | no `unwrap`/`expect`/`panic!`/indexing | fleet state (`fleet.rs`) |
//! | P2   | no blocking I/O (`std::fs`, `println!`, stdin) | fleet state (`fleet.rs`) |
//! | C1   | no bare `as` numeric casts | durability codec/record |
//! | C2   | no `_ =>` arms in `encode`/`decode` matches | durability + storage |
//! | W1   | journal append precedes ack/execute in source order | service crate |
//!
//! D1–D4, P1/P2, and C1 are token patterns; C2 and W1 are structural —
//! they walk the brace tree built by the `parser` module (fn/impl/
//! match/block nesting, no full AST) and consult the per-file float
//! symbol index (`symbols`).
//!
//! Violations are waived only by an inline pragma with a mandatory
//! reason; the report records every waiver, so the audit trail is the
//! report itself:
//!
//! ```text
//! // eavm-lint: allow(D1, reason = "telemetry-gated; never on replay path")
//! let t0 = self.telemetry.is_enabled().then(Instant::now);
//! ```
//!
//! A well-formed pragma whose line no longer violates its rule is
//! itself reported (`unused-waiver`) — waivers are pruned with the code
//! they excused, never left to rot. Pragmas inside doc comments (like
//! the example above) are inert.
//!
//! The crate is dependency-free: it ships its own minimal Rust lexer
//! (the `lexer` module) — comments, strings, raw strings, idents,
//! punctuation — and the brace-tree parser on top of it.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod parser;
mod report;
mod rules;
pub mod symbols;

use std::path::{Path, PathBuf};

pub use report::Report;
pub use rules::{parse_rule_list, scan_source, Finding, LintConfig, Rule, Scope};

/// Lint every `.rs` file under `root`'s workspace source roots
/// (`src/`, `tests/`, `crates/*/src`, `crates/*/tests`) against the
/// default rule set.
pub fn run_lint(root: &Path) -> Result<Report, String> {
    run_lint_with(root, &LintConfig::workspace_default())
}

/// As [`run_lint`] with an explicit rule set.
///
/// Files are scanned in parallel (scoped threads, round-robin file
/// assignment), but the merged report is order-independent: findings
/// carry a total order (path, line, rule, snippet, waived) and the
/// merge ends with one sort, so the report bytes are identical to a
/// sequential run whatever the thread interleaving was.
pub fn run_lint_with(root: &Path, config: &LintConfig) -> Result<Report, String> {
    let mut files = Vec::new();
    for dir in source_roots(root)? {
        collect_rs_files(&dir, &mut files)?;
    }
    let mut rels: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|abs| (relative_slash_path(root, &abs), abs))
        .collect();
    rels.sort();
    let files_scanned = rels.len();

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
        .min(rels.len().max(1));

    let mut findings = Vec::new();
    if workers <= 1 {
        for (rel, abs) in &rels {
            findings.extend(scan_file(rel, abs, config)?);
        }
    } else {
        let chunks: Vec<Result<Vec<Finding>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let rels = &rels;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (rel, abs) in rels.iter().skip(w).step_by(workers) {
                            out.extend(scan_file(rel, abs, config)?);
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("scan worker panicked".into()))
                })
                .collect()
        });
        for chunk in chunks {
            findings.extend(chunk?);
        }
    }
    findings.sort();
    Ok(Report {
        findings,
        files_scanned,
    })
}

fn scan_file(rel: &str, abs: &Path, config: &LintConfig) -> Result<Vec<Finding>, String> {
    let src =
        std::fs::read_to_string(abs).map_err(|e| format!("reading {}: {e}", abs.display()))?;
    Ok(scan_source(rel, &src, config))
}

/// The directories walked: top-level `src`/`tests` plus each crate's
/// `src`/`tests`. Vendored stand-ins and `target/` are never walked.
fn source_roots(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut roots = vec![root.join("src"), root.join("tests")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("reading {}: {e}", crates.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for entry in entries {
            roots.push(entry.join("src"));
            roots.push(entry.join("tests"));
        }
    }
    Ok(roots.into_iter().filter(|p| p.is_dir()).collect())
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes, so scoping and report
/// bytes are identical regardless of platform or invocation directory.
fn relative_slash_path(root: &Path, abs: &Path) -> String {
    let rel = abs.strip_prefix(root).unwrap_or(abs);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

//! The invariant rules and the per-file scanner.
//!
//! Two kinds of rule run over a file. *Token rules* (D1–D4, P1, P2, C1)
//! are patterns over a few adjacent non-comment tokens, some informed
//! by the per-file float-symbol index. *Structural rules* (C2, W1) walk
//! the brace tree from [`crate::parser`]: C2 inspects `match` arms
//! inside codec functions, W1 checks source-order dominance of journal
//! calls over ack calls within a function body.
//!
//! Violations are waivable only by an inline pragma
//!
//! ```text
//! // eavm-lint: allow(D1, reason = "telemetry-gated; never on replay path")
//! ```
//!
//! on the same line as the violation or on the line immediately above
//! it. A pragma without a `reason` never waives — it is itself reported
//! as a malformed-pragma violation, so justification is mandatory. And
//! a well-formed pragma that waives *nothing* is reported too
//! (`unused-waiver`), so waivers are pruned when the code they excused
//! is fixed. Pragmas inside doc comments (`///`, `//!`, `/**`, `/*!`)
//! are documentation, not directives: never parsed, never stale.

use crate::lexer::{tokenize, Tok, TokKind};
use crate::parser::{self, NodeKind};
use crate::symbols::{is_float_literal, FloatIndex};
use std::collections::BTreeSet;

/// Stable rule identifiers (these appear in pragmas and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No wall-clock reads (`Instant::now` / `SystemTime::now`).
    D1,
    /// No OS randomness (`thread_rng`, `from_entropy`, `OsRng`, ...).
    D2,
    /// No default-hasher `HashMap`/`HashSet` in replay-critical crates.
    D3,
    /// No float `==`/`!=` or `partial_cmp(..).unwrap()` in
    /// replay-critical crates; use `total_cmp` or epsilon helpers.
    D4,
    /// No `unwrap`/`expect`/`panic!`/slice-indexing in the fleet-state hot path.
    P1,
    /// No blocking I/O (`std::fs`, `println!`, stdin) in the fleet-state hot path.
    P2,
    /// No bare `as` narrowing casts in durability codec/record code.
    C1,
    /// No `_ =>` wildcard arms in `encode`/`decode` matches — a
    /// wildcard silently swallows a newly added variant or record tag.
    C2,
    /// Journal/WAL append must precede the corresponding ack/execute in
    /// source order within a service function body.
    W1,
    /// A well-formed pragma whose line no longer violates anything.
    UnusedWaiver,
    /// A pragma that cannot waive anything (unknown rule or no reason).
    Pragma,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 11] = [
        Rule::D1,
        Rule::D2,
        Rule::D3,
        Rule::D4,
        Rule::P1,
        Rule::P2,
        Rule::C1,
        Rule::C2,
        Rule::W1,
        Rule::UnusedWaiver,
        Rule::Pragma,
    ];

    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::P1 => "P1",
            Rule::P2 => "P2",
            Rule::C1 => "C1",
            Rule::C2 => "C2",
            Rule::W1 => "W1",
            Rule::UnusedWaiver => "unused-waiver",
            Rule::Pragma => "pragma",
        }
    }

    /// Rules a pragma may name. The meta rules (`pragma`,
    /// `unused-waiver`) are deliberately unwaivable: a waiver for "this
    /// waiver is broken" would be an audit hole.
    fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL
            .into_iter()
            .filter(|r| !matches!(r, Rule::UnusedWaiver | Rule::Pragma))
            .find(|r| r.id() == id)
    }

    /// Rules a `--rules` filter may name (all of them, meta included).
    pub fn from_filter_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// One-line statement of the invariant, for reports.
    pub fn invariant(self) -> &'static str {
        match self {
            Rule::D1 => "no wall-clock reads outside telemetry-gated sites",
            Rule::D2 => "no OS randomness; only explicitly seeded generators",
            Rule::D3 => "no default-hasher maps/sets in replay-critical crates",
            Rule::D4 => "no float ==/!= or partial_cmp().unwrap(); use total_cmp or epsilons",
            Rule::P1 => "no panic paths (unwrap/expect/panic!/indexing) in fleet-state code",
            Rule::P2 => "no blocking I/O (std::fs, println!, stdin) in fleet-state code",
            Rule::C1 => "no bare `as` casts in codec/record code; use checked helpers",
            Rule::C2 => "no `_ =>` wildcard arms in encode/decode matches",
            Rule::W1 => "journal append must precede ack/execute in source order",
            Rule::UnusedWaiver => "allow-pragmas must still waive something; prune stale ones",
            Rule::Pragma => "allow-pragmas must name a known rule and give a reason",
        }
    }
}

/// Parse a `--rules`-style comma list into a rule set. Unknown ids are
/// a structured error naming every valid id, so a typo fails the run
/// up front instead of silently scanning nothing.
pub fn parse_rule_list(list: &str) -> Result<BTreeSet<Rule>, String> {
    let mut rules = BTreeSet::new();
    for part in list.split(',') {
        let id = part.trim();
        if id.is_empty() {
            continue;
        }
        match Rule::from_filter_id(id) {
            Some(rule) => {
                rules.insert(rule);
            }
            None => {
                let known: Vec<&str> = Rule::ALL.iter().map(|r| r.id()).collect();
                return Err(format!(
                    "unknown lint rule {id:?}; known rules: {}",
                    known.join(", ")
                ));
            }
        }
    }
    if rules.is_empty() {
        return Err("rule list names no rules".to_string());
    }
    Ok(rules)
}

/// Where each rule applies. Paths are workspace-relative with forward
/// slashes; a rule fires in a file iff some include prefix matches and
/// no exclude prefix does.
#[derive(Debug, Clone)]
pub struct Scope {
    pub rule: Rule,
    pub include: Vec<String>,
    pub exclude: Vec<String>,
    /// Whether the rule also applies inside test code (`tests/` files
    /// and items gated behind a `#[cfg(test)]` attribute).
    pub applies_to_tests: bool,
}

impl Scope {
    fn matches(&self, path: &str) -> bool {
        self.include.iter().any(|p| path.starts_with(p.as_str()))
            && !self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// The rule set to run; [`LintConfig::workspace_default`] is the one CI
/// enforces.
#[derive(Debug, Clone)]
pub struct LintConfig {
    pub scopes: Vec<Scope>,
    /// Report malformed pragmas (rule `pragma`).
    pub check_pragmas: bool,
    /// Report stale pragmas (rule `unused-waiver`).
    pub check_unused_waivers: bool,
}

/// The crates whose state feeds bit-exact replay/recovery proofs;
/// D3's ordered-iteration and D4's total-float-order requirements are
/// scoped to these.
const REPLAY_CRITICAL: [&str; 8] = [
    "crates/simulator/",
    "crates/service/",
    "crates/durability/",
    "crates/storage/",
    "crates/partitions/",
    "crates/scenario/",
    "crates/migrate/",
    "crates/overload/",
];

impl LintConfig {
    /// The workspace rule set: D1/D2 everywhere (tests included — a
    /// replay test that reads a clock is as nondeterministic as the
    /// code under test), D3/D4 in replay-critical crates, P1/P2 in the
    /// fleet state (a panic there kills the admission loop; blocking
    /// I/O there stalls every admission), C1/C2 in the durability
    /// wire codec, W1 in the service crate (ack before journal means a
    /// crash acks work the recovery cannot see). The bench crate is
    /// wall-clock by nature and exempt from D1.
    pub fn workspace_default() -> Self {
        LintConfig {
            scopes: vec![
                Scope {
                    rule: Rule::D1,
                    include: vec!["crates/".into(), "src/".into(), "tests/".into()],
                    exclude: vec!["crates/bench/".into()],
                    applies_to_tests: true,
                },
                Scope {
                    rule: Rule::D2,
                    include: vec!["crates/".into(), "src/".into(), "tests/".into()],
                    exclude: vec![],
                    applies_to_tests: true,
                },
                Scope {
                    rule: Rule::D3,
                    include: REPLAY_CRITICAL.iter().map(|s| s.to_string()).collect(),
                    exclude: vec![],
                    applies_to_tests: false,
                },
                Scope {
                    rule: Rule::D4,
                    include: REPLAY_CRITICAL.iter().map(|s| s.to_string()).collect(),
                    exclude: vec![],
                    applies_to_tests: false,
                },
                Scope {
                    rule: Rule::P1,
                    include: vec!["crates/service/src/fleet.rs".into()],
                    exclude: vec![],
                    applies_to_tests: false,
                },
                Scope {
                    rule: Rule::P2,
                    include: vec!["crates/service/src/fleet.rs".into()],
                    exclude: vec![],
                    applies_to_tests: false,
                },
                Scope {
                    rule: Rule::C1,
                    include: vec![
                        "crates/durability/src/codec.rs".into(),
                        "crates/durability/src/record.rs".into(),
                    ],
                    exclude: vec![],
                    applies_to_tests: false,
                },
                Scope {
                    rule: Rule::C2,
                    include: vec!["crates/durability/".into(), "crates/storage/".into()],
                    exclude: vec![],
                    applies_to_tests: false,
                },
                Scope {
                    rule: Rule::W1,
                    include: vec!["crates/service/src/".into()],
                    exclude: vec![],
                    applies_to_tests: false,
                },
            ],
            check_pragmas: true,
            check_unused_waivers: true,
        }
    }

    /// The same config restricted to `enabled` rules (the `--rules`
    /// filter). The meta rules only run when explicitly kept: a
    /// filtered run must not report a D1 pragma as stale just because
    /// D1 was filtered out of the run.
    pub fn restricted(&self, enabled: &BTreeSet<Rule>) -> LintConfig {
        LintConfig {
            scopes: self
                .scopes
                .iter()
                .filter(|s| enabled.contains(&s.rule))
                .cloned()
                .collect(),
            check_pragmas: self.check_pragmas && enabled.contains(&Rule::Pragma),
            check_unused_waivers: self.check_unused_waivers
                && enabled.contains(&Rule::UnusedWaiver),
        }
    }
}

/// One rule hit at a source location. The derived ordering
/// (path, line, rule, snippet, waived) is total, so a report sorted by
/// it has identical bytes however the per-file scans were scheduled.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: Rule,
    /// The offending token sequence, e.g. `Instant::now`.
    pub snippet: String,
    /// `Some(reason)` when waived by a pragma.
    pub waived: Option<String>,
}

/// A parsed allow-pragma comment (tag + rule + mandatory reason).
#[derive(Debug)]
struct Pragma {
    rule: Rule,
    reason: String,
    line: u32,
}

const PRAGMA_TAG: &str = "eavm-lint:";

/// Is this comment a doc comment? Pragma examples inside documentation
/// must be inert.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || (text.starts_with("/**") && !text.starts_with("/**/"))
        || text.starts_with("/*!")
}

/// Parse an allow-pragma out of a comment body. Returns `Err(finding)`
/// for a comment that names the tag but is malformed (unknown rule or
/// missing reason) — those must fail loudly, not silently stop waiving.
fn parse_pragma(text: &str, line: u32, path: &str) -> Option<Result<Pragma, Finding>> {
    let at = text.find(PRAGMA_TAG)?;
    let rest = text[at + PRAGMA_TAG.len()..].trim_start();
    let malformed = |why: &str| {
        Some(Err(Finding {
            path: path.to_string(),
            line,
            rule: Rule::Pragma,
            snippet: why.to_string(),
            waived: None,
        }))
    };
    let Some(body) = rest.strip_prefix("allow(") else {
        return malformed("pragma is not `allow(<rule>, reason = \"...\")`");
    };
    // Close at the LAST `)` so a reason may itself contain parens.
    let Some(end) = body.rfind(')') else {
        return malformed("unterminated allow-pragma");
    };
    let body = &body[..end];
    let mut parts = body.splitn(2, ',');
    let rule_id = parts.next().unwrap_or("").trim();
    let Some(rule) = Rule::from_id(rule_id) else {
        return malformed(&format!("unknown rule {rule_id:?} in allow-pragma"));
    };
    let reason = parts
        .next()
        .and_then(|kv| kv.split_once('='))
        .filter(|(key, _)| key.trim() == "reason")
        .map(|(_, v)| v.trim().trim_matches('"').to_string())
        .unwrap_or_default();
    if reason.is_empty() {
        return malformed(&format!("allow({rule_id}) has no reason — one is required"));
    }
    Some(Ok(Pragma { rule, reason, line }))
}

/// Scan one file's source against the config. `path` must be
/// workspace-relative with forward slashes (it drives rule scoping).
pub fn scan_source(path: &str, src: &str, config: &LintConfig) -> Vec<Finding> {
    let in_tests_dir = path.split('/').any(|seg| seg == "tests");
    let toks = tokenize(src);

    let mut pragmas: Vec<Pragma> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    for t in &toks {
        if matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
            && !is_doc_comment(&t.text)
        {
            match parse_pragma(&t.text, t.line, path) {
                Some(Ok(p)) => pragmas.push(p),
                Some(Err(f)) if config.check_pragmas => findings.push(f),
                _ => {}
            }
        }
    }

    // Code tokens only, each tagged with whether it sits in test code:
    // files under `tests/`, or the single item (fn, mod, impl, use, ...)
    // that a `#[cfg(test)]` attribute gates — the item extends to its
    // closing brace, or to a `;` for brace-less items.
    let significant: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let flags = test_flags(&significant, in_tests_dir);
    let code: Vec<(&Tok, bool)> = significant.iter().copied().zip(flags).collect();

    // Structural context, built once per file and shared by all rules.
    let tree = parser::parse(&significant);
    let floats = FloatIndex::build(&significant);

    for scope in &config.scopes {
        if !scope.matches(path) {
            continue;
        }
        match scope.rule {
            Rule::C2 => c2_scan(path, &tree, &code, scope, &mut findings),
            Rule::W1 => w1_scan(path, &tree, &code, scope, &mut findings),
            _ => {
                for (i, &(tok, in_test)) in code.iter().enumerate() {
                    if in_test && !scope.applies_to_tests {
                        continue;
                    }
                    if let Some(snippet) = match_rule(scope.rule, &code, i, tok, &floats) {
                        findings.push(Finding {
                            path: path.to_string(),
                            line: tok.line,
                            rule: scope.rule,
                            snippet,
                            waived: None,
                        });
                    }
                }
            }
        }
    }

    // Apply waivers: a pragma covers its own line and the next line.
    // Track which pragmas earned their keep.
    let mut used = vec![false; pragmas.len()];
    for f in &mut findings {
        if matches!(f.rule, Rule::Pragma | Rule::UnusedWaiver) {
            continue;
        }
        if let Some(k) = pragmas
            .iter()
            .position(|p| p.rule == f.rule && (p.line == f.line || p.line + 1 == f.line))
        {
            f.waived = Some(pragmas[k].reason.clone());
            used[k] = true;
        }
    }

    // A pragma that waived nothing is itself a finding — but only when
    // its rule actually ran on this file, so a `--rules`-filtered scan
    // never calls a waiver stale for lack of looking.
    if config.check_unused_waivers {
        for (k, p) in pragmas.iter().enumerate() {
            if used[k] {
                continue;
            }
            if !config
                .scopes
                .iter()
                .any(|s| s.rule == p.rule && s.matches(path))
            {
                continue;
            }
            findings.push(Finding {
                path: path.to_string(),
                line: p.line,
                rule: Rule::UnusedWaiver,
                snippet: format!("allow({}) waives nothing here — remove it", p.rule.id()),
                waived: None,
            });
        }
    }

    findings.sort();
    findings
}

/// Per-token test-code flags. A `#[cfg(test)]` attribute marks itself,
/// any attributes stacked after it, and the one item it gates — up to
/// the matching `}` of the item's first `{`, or a top-level `;` for
/// brace-less items (`use`, `mod tests;`). A mid-file test-only helper
/// therefore does NOT exempt the unrelated code below it.
fn test_flags(significant: &[&Tok], in_tests_dir: bool) -> Vec<bool> {
    let mut flags = vec![in_tests_dir; significant.len()];
    if in_tests_dir {
        return flags;
    }
    let punct = |j: usize| match significant.get(j) {
        Some(t) => match t.kind {
            TokKind::Punct(c) => Some(c),
            _ => None,
        },
        None => None,
    };
    let mut i = 0;
    while i < significant.len() {
        if !is_cfg_test_at(significant, i) {
            i += 1;
            continue;
        }
        // Walk to the end of the gated item: count `{`/`}` depth,
        // stopping at the brace that closes the first one opened, or at
        // a `;` before any brace opens. Brackets inside the attribute
        // itself contain neither, so no special casing is needed.
        let mut depth = 0usize;
        let mut end = significant.len() - 1;
        for (j, _) in significant.iter().enumerate().skip(i) {
            match punct(j) {
                Some('{') => depth += 1,
                Some('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                Some(';') if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
        }
        for flag in flags.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    flags
}

/// Does `significant[i]` start a `#[cfg(test)]` attribute?
fn is_cfg_test_at(significant: &[&Tok], i: usize) -> bool {
    let texts: Vec<&str> = significant[i..]
        .iter()
        .take(7)
        .map(|t| t.text.as_str())
        .collect();
    matches!(
        texts.as_slice(),
        ["#", "[", "cfg", "(", "test", ")", "]"] | ["#", "[", "cfg", "(", "test", ",", _]
    )
}

fn ident_at<'a>(code: &'a [(&'a Tok, bool)], i: usize) -> Option<&'a str> {
    code.get(i)
        .and_then(|(t, _)| (t.kind == TokKind::Ident).then_some(t.text.as_str()))
}

fn punct_at(code: &[(&Tok, bool)], i: usize) -> Option<char> {
    code.get(i).and_then(|(t, _)| match t.kind {
        TokKind::Punct(c) => Some(c),
        _ => None,
    })
}

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Match a token rule at position `i` of the code-token stream; returns
/// the offending snippet on a hit.
fn match_rule(
    rule: Rule,
    code: &[(&Tok, bool)],
    i: usize,
    tok: &Tok,
    floats: &FloatIndex,
) -> Option<String> {
    match rule {
        Rule::D1 => {
            // `Instant::now` / `SystemTime::now` as adjacent tokens.
            if tok.kind == TokKind::Ident && (tok.text == "Instant" || tok.text == "SystemTime") {
                let path_sep =
                    punct_at(code, i + 1) == Some(':') && punct_at(code, i + 2) == Some(':');
                if path_sep && ident_at(code, i + 3) == Some("now") {
                    return Some(format!("{}::now", tok.text));
                }
            }
            None
        }
        Rule::D2 => {
            const BANNED: [&str; 5] = [
                "thread_rng",
                "from_entropy",
                "OsRng",
                "getrandom",
                "RandomState",
            ];
            (tok.kind == TokKind::Ident && BANNED.contains(&tok.text.as_str()))
                .then(|| tok.text.clone())
        }
        Rule::D3 => (tok.kind == TokKind::Ident
            && (tok.text == "HashMap" || tok.text == "HashSet"))
            .then(|| tok.text.clone()),
        Rule::D4 => d4_match(code, i, tok, floats),
        Rule::P1 => p1_match(code, i, tok),
        Rule::P2 => p2_match(code, i, tok),
        Rule::C1 => {
            if tok.kind == TokKind::Ident && tok.text == "as" {
                if let Some(ty) = ident_at(code, i + 1) {
                    if NUMERIC_TYPES.contains(&ty) {
                        return Some(format!("as {ty}"));
                    }
                }
            }
            None
        }
        // Structural and meta rules are produced elsewhere.
        Rule::C2 | Rule::W1 | Rule::UnusedWaiver | Rule::Pragma => None,
    }
}

/// Is this token a float-typed operand as far as the file-local index
/// can tell: a float literal, a name declared `: f64`/`: f32`, or the
/// type itself (the `f64` of `x as f64 == y`)?
fn is_float_operand(code: &[(&Tok, bool)], i: usize, floats: &FloatIndex) -> bool {
    let Some(&(t, _)) = code.get(i) else {
        return false;
    };
    match t.kind {
        TokKind::Number => is_float_literal(t),
        TokKind::Ident => t.text == "f64" || t.text == "f32" || floats.contains(&t.text),
        _ => false,
    }
}

/// D4: float `==`/`!=`, and `partial_cmp(..)` chained straight into
/// `.unwrap()`/`.expect()` (a NaN anywhere turns that into a panic and
/// any ordering it fed into nondeterminism — `total_cmp` is free).
fn d4_match(code: &[(&Tok, bool)], i: usize, tok: &Tok, floats: &FloatIndex) -> Option<String> {
    match tok.kind {
        TokKind::Punct('=') if punct_at(code, i + 1) == Some('=') => {
            // Anchor on the first `=` of `==`; a preceding comparison or
            // bang char means this is the tail of another operator.
            if matches!(
                punct_at(code, i.wrapping_sub(1)),
                Some('=') | Some('!') | Some('<') | Some('>')
            ) {
                return None;
            }
            let float = is_float_operand(code, i.checked_sub(1)?, floats)
                || is_float_operand(code, i + 2, floats);
            float.then(|| "float ==".to_string())
        }
        TokKind::Punct('!') if punct_at(code, i + 1) == Some('=') => {
            let float = is_float_operand(code, i.wrapping_sub(1), floats)
                || is_float_operand(code, i + 2, floats);
            float.then(|| "float !=".to_string())
        }
        TokKind::Ident if tok.text == "partial_cmp" && punct_at(code, i + 1) == Some('(') => {
            // Skip the balanced argument list, then look for `.unwrap(`
            // or `.expect(` immediately after it.
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < code.len() {
                match punct_at(code, j) {
                    Some('(') => depth += 1,
                    Some(')') => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if punct_at(code, j + 1) == Some('.') {
                if let Some(m @ ("unwrap" | "expect")) = ident_at(code, j + 2) {
                    if punct_at(code, j + 3) == Some('(') {
                        return Some(format!("partial_cmp(..).{m}()"));
                    }
                }
            }
            None
        }
        _ => None,
    }
}

fn p1_match(code: &[(&Tok, bool)], i: usize, tok: &Tok) -> Option<String> {
    match tok.kind {
        TokKind::Ident if tok.text == "unwrap" || tok.text == "expect" => {
            // Only as a method call: `.unwrap(` / `.expect(` — never
            // `unwrap_or*` (distinct idents) or free definitions.
            let is_call = punct_at(code, i.checked_sub(1)?) == Some('.')
                && punct_at(code, i + 1) == Some('(');
            is_call.then(|| format!(".{}()", tok.text))
        }
        TokKind::Ident if tok.text == "panic" || tok.text == "unreachable" => {
            (punct_at(code, i + 1) == Some('!')).then(|| format!("{}!", tok.text))
        }
        TokKind::Punct('[') => {
            // Indexing: `[` directly after an ident, `)`, `]`, or a
            // literal is `expr[...]`. Attribute (`#[`), macro (`vec![`),
            // slice types (`&[T]`), and array types (`: [T; N]`) all
            // have a different preceding token.
            let i = i.checked_sub(1)?;
            let (prev, _) = code.get(i)?;
            let indexing = matches!(prev.kind, TokKind::Ident | TokKind::Number)
                && !is_keyword(&prev.text)
                || matches!(prev.kind, TokKind::Punct(')') | TokKind::Punct(']'));
            indexing.then(|| format!("{}[..]", prev.text))
        }
        _ => None,
    }
}

/// P2: blocking I/O in the fleet-state hot path — filesystem calls, console
/// macros (the write is synchronous and takes a process-global lock),
/// and stdin reads.
fn p2_match(code: &[(&Tok, bool)], i: usize, tok: &Tok) -> Option<String> {
    if tok.kind != TokKind::Ident {
        return None;
    }
    match tok.text.as_str() {
        "println" | "eprintln" | "print" | "eprint" => {
            (punct_at(code, i + 1) == Some('!')).then(|| format!("{}!", tok.text))
        }
        "std" => {
            let path_sep = punct_at(code, i + 1) == Some(':') && punct_at(code, i + 2) == Some(':');
            (path_sep && ident_at(code, i + 3) == Some("fs")).then(|| "std::fs".to_string())
        }
        "stdin" => Some("stdin".to_string()),
        _ => None,
    }
}

/// C2: walk every `match` whose nearest enclosing `fn` is a codec
/// (`encode*`/`decode*`) and flag `_ =>` arms at arm level. Arms of a
/// *nested* match sit inside that match's own braces and are charged to
/// the inner match, never the outer one.
fn c2_scan(
    path: &str,
    tree: &[parser::Node],
    code: &[(&Tok, bool)],
    scope: &Scope,
    findings: &mut Vec<Finding>,
) {
    parser::walk(tree, &mut |node, stack| {
        if node.kind != NodeKind::Match {
            return;
        }
        let codec_fn = stack.iter().rev().find_map(|n| match &n.kind {
            NodeKind::Fn(name) => Some(name.as_str()),
            _ => None,
        });
        let Some(fn_name) = codec_fn else { return };
        if !(fn_name.starts_with("encode") || fn_name.starts_with("decode")) {
            return;
        }
        let mut depth = 0usize;
        for j in node.body.clone() {
            let Some(&(t, in_test)) = code.get(j) else {
                break;
            };
            match t.kind {
                TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                    depth = depth.saturating_sub(1)
                }
                TokKind::Ident
                    if depth == 0
                        && t.text == "_"
                        && punct_at(code, j + 1) == Some('=')
                        && punct_at(code, j + 2) == Some('>') =>
                {
                    if in_test && !scope.applies_to_tests {
                        continue;
                    }
                    findings.push(Finding {
                        path: path.to_string(),
                        line: t.line,
                        rule: Rule::C2,
                        snippet: format!("`_ =>` in {fn_name}"),
                        waived: None,
                    });
                }
                _ => {}
            }
        }
    });
}

/// W1 journal sites: a call to the journaling layer.
fn w1_journal_site(code: &[(&Tok, bool)], j: usize) -> bool {
    match ident_at(code, j) {
        Some("journal_append") | Some("append_resilient") => {
            // A call, not the `fn journal_append(` definition.
            punct_at(code, j + 1) == Some('(') && ident_at(code, j.wrapping_sub(1)) != Some("fn")
        }
        _ => false,
    }
}

/// W1 ack sites: delivering a verdict to the caller or executing a
/// planned migration. Both must be preceded (in source order, within
/// the same fn body) by a journal append, or a crash between ack and
/// append acknowledges work recovery cannot see.
fn w1_ack_site(code: &[(&Tok, bool)], j: usize) -> Option<&'static str> {
    match ident_at(code, j) {
        Some("verdict_tx")
            if punct_at(code, j + 1) == Some('.')
                && ident_at(code, j + 2) == Some("send")
                && punct_at(code, j + 3) == Some('(') =>
        {
            Some("verdict_tx.send")
        }
        Some("execute_move")
            if punct_at(code, j + 1) == Some('(')
                && punct_at(code, j.wrapping_sub(1)) == Some('.') =>
        {
            Some(".execute_move(..)")
        }
        _ => None,
    }
}

/// W1: within each `fn` body, the first journal site must precede every
/// ack site in source order.
fn w1_scan(
    path: &str,
    tree: &[parser::Node],
    code: &[(&Tok, bool)],
    scope: &Scope,
    findings: &mut Vec<Finding>,
) {
    parser::walk(tree, &mut |node, _stack| {
        if !matches!(node.kind, NodeKind::Fn(_)) {
            return;
        }
        let first_journal = node.body.clone().find(|&j| w1_journal_site(code, j));
        for j in node.body.clone() {
            let Some(site) = w1_ack_site(code, j) else {
                continue;
            };
            let Some(&(t, in_test)) = code.get(j) else {
                continue;
            };
            if in_test && !scope.applies_to_tests {
                continue;
            }
            if first_journal.is_none_or(|fj| fj > j) {
                findings.push(Finding {
                    path: path.to_string(),
                    line: t.line,
                    rule: Rule::W1,
                    snippet: format!("{site} before any journal append"),
                    waived: None,
                });
            }
        }
    });
}

/// Keywords that can directly precede `[` without it being indexing
/// (`let [a, b] = ..` destructuring, `return [..]`, `for _ in [..]`).
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "let"
            | "as"
            | "return"
            | "break"
            | "in"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "ref"
            | "const"
            | "static"
    )
}

//! The rule set.
//!
//! Each rule guards one leg of the workspace's determinism/soundness
//! contract (DESIGN.md §14). Rules are deliberately *textual*: they run
//! on lexed code (comments stripped, literals blanked — see
//! [`crate::lexer`]), not on types, so they are heuristics with a
//! documented escape hatch (the justification pragma) rather than a
//! type system. That trade keeps the linter zero-dependency and fast
//! enough to run on every push.

use crate::lexer::LexedFile;

/// Identifies one shipped rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Iteration over `HashMap`/`HashSet` in library code — per-instance
    /// random order breaks bit-for-bit replay.
    HashIter,
    /// Wall-clock time sources (`Instant::now`, `SystemTime`,
    /// `thread::sleep`) — everything replayed runs on the sim clock.
    WallClock,
    /// Randomness that does not flow through `SimRng` — `thread_rng`,
    /// `rand::`, `RandomState`, `OsRng` reseed per process.
    ForeignRng,
    /// `unwrap()` / `expect()` / `panic!` in library code outside
    /// `#[cfg(test)]` — crash paths must be designed, not implied.
    NoUnwrap,
    /// Every crate root must carry `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// `Cargo.lock` must resolve to workspace members only (the
    /// zero-dependency invariant).
    WorkspacePurity,
    /// Malformed suppression pragmas (missing/empty justification,
    /// unknown rule name).
    PragmaHygiene,
    /// `std::thread::{scope, spawn, Builder}` outside
    /// `crates/simnet/src/steal.rs`, the one work-stealing helper.
    ThreadSpawn,
}

impl RuleId {
    /// All rules, in reporting order.
    pub const ALL: [RuleId; 8] = [
        RuleId::HashIter,
        RuleId::WallClock,
        RuleId::ForeignRng,
        RuleId::NoUnwrap,
        RuleId::ForbidUnsafe,
        RuleId::WorkspacePurity,
        RuleId::PragmaHygiene,
        RuleId::ThreadSpawn,
    ];

    /// The kebab-case name used in diagnostics and pragmas.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashIter => "hash-iter",
            RuleId::WallClock => "wall-clock",
            RuleId::ForeignRng => "foreign-rng",
            RuleId::NoUnwrap => "no-unwrap",
            RuleId::ForbidUnsafe => "forbid-unsafe",
            RuleId::WorkspacePurity => "workspace-purity",
            RuleId::PragmaHygiene => "pragma-hygiene",
            RuleId::ThreadSpawn => "thread-spawn",
        }
    }

    /// Parses a rule name (as written in a pragma).
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == name)
    }

    /// All rule names, for error messages.
    pub fn names() -> Vec<&'static str> {
        RuleId::ALL.into_iter().map(|r| r.name()).collect()
    }
}

/// Where a file sits in the workspace — rules scope by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileScope {
    /// A library crate source file (`crates/*/src/**`, the facade
    /// `src/lib.rs`). Full rule set.
    Library,
    /// Benchmark code (`crates/bench/**`). Exempt from `hash-iter` and
    /// `no-unwrap`; wall-clock sites there still need a justification
    /// pragma so the exemption stays visible and auditable.
    Bench,
    /// A binary target (`src/bin/**`, `crates/*/src/bin/**`,
    /// `crates/lint/src/main.rs`). Exempt from `hash-iter`/`no-unwrap`
    /// (a CLI may die loudly), still sim-clock/SimRng-only.
    Bin,
    /// Integration tests (`tests/**`). Exempt from `no-unwrap`.
    Test,
    /// Examples (`examples/**`). Exempt from `no-unwrap`.
    Example,
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-oriented explanation.
    pub message: String,
    /// The offending source line, trimmed (empty for file-level rules).
    pub snippet: String,
}

/// Runs every line-scoped rule over one lexed file.
///
/// `raw_lines` (original source, line-split) is used only for snippet
/// display; all matching happens on the lexed code channel.
pub fn run_file_rules(
    scope: FileScope,
    path: &str,
    lexed: &LexedFile,
    raw_lines: &[&str],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if scope == FileScope::Library {
        hash_iter(path, lexed, raw_lines, &mut findings);
        no_unwrap(path, lexed, raw_lines, &mut findings);
    }
    pattern_rules(path, lexed, raw_lines, &mut findings);
    findings.sort_by_key(|a| (a.line, a.rule));
    findings.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    findings
}

fn snippet(raw_lines: &[&str], line: usize) -> String {
    raw_lines
        .get(line - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default()
}

/// Occurrences of `pat` in `line` at identifier boundaries (the char
/// before and after the match must not extend an identifier).
fn word_positions(line: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(rel) = line[from..].find(pat) {
        let start = from + rel;
        let end = start + pat.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let pat_ends_ident = pat.as_bytes().last().is_some_and(|&b| is_ident_byte(b));
        let after_ok = !pat_ends_ident || end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(start);
        }
        from = end;
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

// ---------------------------------------------------------------------
// Rules: wall-clock, foreign-rng, thread-spawn
// ---------------------------------------------------------------------

/// The rules that flag a plain pattern in the code channel: each rule's
/// patterns and the explanation that follows the matched pattern.
const PATTERN_RULES: [(RuleId, &[&str], &str); 3] = [
    (
        RuleId::WallClock,
        &["Instant::now", "SystemTime", "thread::sleep"],
        "reads the wall clock — replayed code must use the sim clock (SimTime); justify \
         timing-only uses with a pragma",
    ),
    (
        RuleId::ForeignRng,
        &["thread_rng", "rand::", "RandomState", "OsRng", "getrandom"],
        "is a non-deterministic randomness source — all draws must flow through seeded \
         SimRng streams",
    ),
    (
        RuleId::ThreadSpawn,
        &["thread::scope", "thread::spawn", "thread::Builder"],
        "starts threads outside crates/simnet/src/steal.rs — run parallel work through \
         tsn_simnet::steal so it stays worker-count invariant",
    ),
];

fn pattern_rules(path: &str, lexed: &LexedFile, raw: &[&str], out: &mut Vec<Finding>) {
    for (rule, patterns, why) in PATTERN_RULES {
        if rule == RuleId::ThreadSpawn && path == "crates/simnet/src/steal.rs" {
            continue;
        }
        for (idx, code) in lexed.code.iter().enumerate() {
            for pat in patterns {
                if !word_positions(code, pat).is_empty() {
                    out.push(Finding {
                        rule,
                        path: path.to_string(),
                        line: idx + 1,
                        message: format!("`{pat}` {why}"),
                        snippet: snippet(raw, idx + 1),
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: no-unwrap
// ---------------------------------------------------------------------

fn no_unwrap(path: &str, lexed: &LexedFile, raw: &[&str], out: &mut Vec<Finding>) {
    let in_test = cfg_test_mask(lexed);
    for (idx, code) in lexed.code.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for (pat, what) in [
            (".unwrap()", "`.unwrap()`"),
            (".expect(", "`.expect()`"),
            ("panic!", "`panic!`"),
        ] {
            let hit = if pat == "panic!" {
                !word_positions(code, pat).is_empty()
            } else {
                code.contains(pat)
            };
            if hit {
                out.push(Finding {
                    rule: RuleId::NoUnwrap,
                    path: path.to_string(),
                    line: idx + 1,
                    message: format!(
                        "{what} in library code outside #[cfg(test)] — return an error, \
                         restructure so the invariant is by construction, or justify \
                         with a pragma"
                    ),
                    snippet: snippet(raw, idx + 1),
                });
            }
        }
    }
}

/// Per-line mask: is this line inside a `#[cfg(test)]`-gated item?
///
/// Brace-depth tracking on lexed code (string/char braces already
/// blanked). The region starts at the attribute line and ends when the
/// brace depth returns to its pre-attribute level.
fn cfg_test_mask(lexed: &LexedFile) -> Vec<bool> {
    #[derive(PartialEq)]
    enum Region {
        /// Not inside a gated item.
        Outside,
        /// Saw the attribute; waiting for the item's `{` or a
        /// brace-less item terminated by `;` (`#[cfg(test)] use …;`).
        Armed,
        /// Inside the item's braces; closes when depth returns to the
        /// recorded floor.
        Open(i64),
    }
    let mut mask = vec![false; lexed.code.len()];
    let mut depth: i64 = 0;
    let mut region = Region::Outside;
    for (idx, code) in lexed.code.iter().enumerate() {
        if region == Region::Outside && code.contains("cfg(test)") {
            region = Region::Armed;
        }
        if region != Region::Outside {
            mask[idx] = true;
        }
        let depth_before = depth;
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        region = match region {
            Region::Outside => Region::Outside,
            Region::Armed => {
                if code.contains('{') {
                    if depth <= depth_before && code.contains('}') {
                        Region::Outside // one-liner: `#[cfg(test)] mod t { … }`
                    } else {
                        Region::Open(depth_before)
                    }
                } else if code.trim_end().ends_with(';') {
                    Region::Outside // brace-less gated item
                } else {
                    Region::Armed
                }
            }
            Region::Open(floor) => {
                if depth <= floor && code.contains('}') {
                    Region::Outside
                } else {
                    Region::Open(floor)
                }
            }
        };
    }
    mask
}

// ---------------------------------------------------------------------
// Rule: hash-iter
// ---------------------------------------------------------------------

const HASH_ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

fn hash_iter(path: &str, lexed: &LexedFile, raw: &[&str], out: &mut Vec<Finding>) {
    let idents = collect_hash_idents(lexed);
    for (idx, code) in lexed.code.iter().enumerate() {
        let mut flag = |message: String| {
            out.push(Finding {
                rule: RuleId::HashIter,
                path: path.to_string(),
                line: idx + 1,
                message,
                snippet: snippet(raw, idx + 1),
            });
        };
        // Method calls on a known hash-typed binding, or directly on a
        // HashMap/HashSet expression on the same line.
        for method in HASH_ITER_METHODS {
            let mut from = 0;
            while let Some(rel) = code[from..].find(method) {
                let at = from + rel;
                let receiver = ident_before(code, at);
                let direct = code[..at].contains("HashMap") || code[..at].contains("HashSet");
                if direct || idents.iter().any(|i| i == receiver) {
                    flag(format!(
                        "`{}{method}` iterates a hash collection — per-instance random \
                         order breaks bit-for-bit replay; use a sorted/indexed structure \
                         (LocalMatrix idiom) or collect-and-sort first",
                        receiver
                    ));
                }
                from = at + method.len();
            }
        }
        // `for … in <hash binding>` (with optional &/&mut and trailing
        // method chain already handled above).
        if let Some(pos) = word_positions(code, "for").first().copied() {
            if let Some(in_rel) = code[pos..].find(" in ") {
                let expr = code[pos + in_rel + 4..].trim_start();
                let expr = expr.trim_start_matches('&').trim_start_matches("mut ");
                let head: String = expr
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '.')
                    .collect();
                let last = head.rsplit('.').next().unwrap_or_default();
                if idents.iter().any(|i| i == last) {
                    flag(format!(
                        "`for … in {last}` iterates a hash collection — per-instance \
                         random order breaks bit-for-bit replay"
                    ));
                }
            }
        }
    }
}

/// Collects identifiers bound to `HashMap`/`HashSet` in this file:
/// type-annotated bindings/fields/params (`name: HashMap<…>`) and
/// constructor bindings (`name = HashMap::new()` /
/// `with_capacity(…)`). File-local and purely textual — a heuristic,
/// not type inference.
fn collect_hash_idents(lexed: &LexedFile) -> Vec<String> {
    let mut idents = Vec::new();
    for code in &lexed.code {
        for ty in ["HashMap", "HashSet"] {
            for at in word_positions(code, ty) {
                // Reference types annotate bindings too: peel `&`/`&mut`
                // so `votes: &HashMap<…>` still captures `votes`.
                let mut before = code[..at].trim_end();
                if let Some(b) = before.strip_suffix("mut") {
                    before = b.trim_end();
                }
                before = before.trim_end_matches('&').trim_end();
                let name = if let Some(b) = before.strip_suffix(':') {
                    // `name: HashMap<…>` — annotation on a binding,
                    // field or parameter. (`::` path segments like
                    // `collections::HashMap` must not capture the
                    // module name.)
                    if b.ends_with(':') {
                        continue;
                    }
                    ident_at_end(b)
                } else if let Some(b) = before.strip_suffix('=') {
                    // `name = HashMap::new()` — strip a possible
                    // type annotation between name and `=`.
                    let b = b.trim_end();
                    match b.rfind(':') {
                        Some(c) if !b.ends_with("::") => ident_at_end(b[..c].trim_end_matches(':')),
                        _ => ident_at_end(b),
                    }
                } else {
                    continue;
                };
                if !name.is_empty() && !idents.iter().any(|i| i == &name) {
                    idents.push(name);
                }
            }
        }
    }
    idents
}

/// The identifier ending at byte position `at` (exclusive), e.g. the
/// method-call receiver just before a `.`.
fn ident_before(code: &str, at: usize) -> &str {
    let bytes = code.as_bytes();
    let mut start = at;
    while start > 0 && is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    &code[start..at]
}

/// The identifier at the end of `s` (after trimming), if any.
fn ident_at_end(s: &str) -> String {
    let s = s.trim_end().trim_end_matches("mut ").trim_end();
    let s = s.trim_end();
    ident_before(s, s.len()).to_string()
}

// ---------------------------------------------------------------------
// Rule: forbid-unsafe (crate roots)
// ---------------------------------------------------------------------

/// Checks a crate root for `#![forbid(unsafe_code)]`.
pub fn check_crate_root(path: &str, lexed: &LexedFile) -> Option<Finding> {
    let present = lexed
        .code
        .iter()
        .any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if present {
        None
    } else {
        Some(Finding {
            rule: RuleId::ForbidUnsafe,
            path: path.to_string(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]` — every workspace \
                      crate forbids unsafe at the root"
                .to_string(),
            snippet: String::new(),
        })
    }
}

// ---------------------------------------------------------------------
// Rule: workspace-purity (Cargo.lock)
// ---------------------------------------------------------------------

/// One resolved package from `Cargo.lock` (also emitted into the JSON
/// report so dependency audits can diff it PR-over-PR).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockPackage {
    /// Package name.
    pub name: String,
    /// Resolved version.
    pub version: String,
    /// Registry/git source, if any — workspace members have none.
    pub source: Option<String>,
    /// Names of its resolved dependencies.
    pub dependencies: Vec<String>,
    /// 1-based line of the `[[package]]` stanza in `Cargo.lock`.
    pub line: usize,
}

/// Parses `Cargo.lock` and checks the zero-dependency invariant: every
/// resolved package must be a workspace member (no `source`, name in
/// `members`). Returns findings plus the full resolved package list.
pub fn check_lockfile(lock_text: &str, members: &[String]) -> (Vec<Finding>, Vec<LockPackage>) {
    let packages = parse_lockfile(lock_text);
    let mut findings = Vec::new();
    for p in &packages {
        if let Some(source) = &p.source {
            findings.push(Finding {
                rule: RuleId::WorkspacePurity,
                path: "Cargo.lock".to_string(),
                line: p.line,
                message: format!(
                    "package `{} {}` resolves from an external source (`{source}`) — the \
                     workspace is zero-dependency by construction; vendor the primitive \
                     instead",
                    p.name, p.version
                ),
                snippet: format!("[[package]] {} {}", p.name, p.version),
            });
        } else if !members.iter().any(|m| m == &p.name) {
            findings.push(Finding {
                rule: RuleId::WorkspacePurity,
                path: "Cargo.lock".to_string(),
                line: p.line,
                message: format!(
                    "package `{} {}` is not a workspace member — stale or foreign lock \
                     entry",
                    p.name, p.version
                ),
                snippet: format!("[[package]] {} {}", p.name, p.version),
            });
        }
    }
    (findings, packages)
}

/// Minimal parser for the subset of TOML that `Cargo.lock` uses.
fn parse_lockfile(text: &str) -> Vec<LockPackage> {
    let mut packages = Vec::new();
    let mut current: Option<LockPackage> = None;
    let mut in_deps = false;
    for (idx, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line == "[[package]]" {
            if let Some(p) = current.take() {
                packages.push(p);
            }
            current = Some(LockPackage {
                name: String::new(),
                version: String::new(),
                source: None,
                dependencies: Vec::new(),
                line: idx + 1,
            });
            in_deps = false;
            continue;
        }
        let Some(p) = current.as_mut() else { continue };
        if in_deps {
            if line.starts_with(']') {
                in_deps = false;
            } else {
                let dep = line.trim_matches(|c: char| c == '"' || c == ',' || c.is_whitespace());
                // A dependency entry may carry a version ("name version");
                // the leading word is the name.
                if let Some(name) = dep.split_whitespace().next() {
                    p.dependencies.push(name.to_string());
                }
            }
            continue;
        }
        if let Some(v) = toml_str_value(line, "name") {
            p.name = v;
        } else if let Some(v) = toml_str_value(line, "version") {
            p.version = v;
        } else if let Some(v) = toml_str_value(line, "source") {
            p.source = Some(v);
        } else if line.starts_with("dependencies = [") {
            in_deps = !line.ends_with(']');
            if !in_deps {
                // Single-line form: dependencies = ["a", "b"].
                let inner = line
                    .trim_start_matches("dependencies = [")
                    .trim_end_matches(']');
                for dep in inner.split(',') {
                    let dep = dep.trim().trim_matches('"');
                    if let Some(name) = dep.split_whitespace().next() {
                        p.dependencies.push(name.to_string());
                    }
                }
            }
        }
    }
    if let Some(p) = current.take() {
        packages.push(p);
    }
    packages
}

/// Extracts `value` from a `key = "value"` TOML line.
pub(crate) fn toml_str_value(line: &str, key: &str) -> Option<String> {
    let rest = line.strip_prefix(key)?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    rest.find('"').map(|end| rest[..end].to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(scope: FileScope, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let raw: Vec<&str> = src.lines().collect();
        run_file_rules(scope, "fixture.rs", &lexed, &raw)
    }

    #[test]
    fn cfg_test_region_is_masked() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\nfn c() { z.unwrap(); }\n";
        let hits: Vec<usize> = lint(FileScope::Library, src)
            .into_iter()
            .filter(|f| f.rule == RuleId::NoUnwrap)
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, vec![1, 6]);
    }

    #[test]
    fn hash_idents_from_annotation_and_ctor() {
        let lexed = lex("struct S { cache: HashMap<u32, f64> }\nlet mut seen = HashSet::new();\n");
        let idents = collect_hash_idents(&lexed);
        assert!(idents.iter().any(|i| i == "cache"));
        assert!(idents.iter().any(|i| i == "seen"));
    }

    #[test]
    fn hash_iter_fires_on_member_and_for_loop() {
        let src = "struct S { cache: HashMap<u32, f64> }\nfn f(s: &S) {\n    for v in s.cache.values() { use_it(v); }\n}\n";
        let f = lint(FileScope::Library, src);
        assert!(f.iter().any(|f| f.rule == RuleId::HashIter && f.line == 3));
    }

    #[test]
    fn hash_iter_ignores_lookups() {
        let src = "struct S { cache: HashMap<u32, f64> }\nfn f(s: &S) -> bool { s.cache.contains_key(&1) }\n";
        let f = lint(FileScope::Library, src);
        assert!(f.iter().all(|f| f.rule != RuleId::HashIter));
    }

    #[test]
    fn lockfile_external_source_flagged() {
        let lock = "[[package]]\nname = \"serde\"\nversion = \"1.0.0\"\nsource = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
        let (f, pkgs) = check_lockfile(lock, &["tsn".to_string()]);
        assert_eq!(pkgs.len(), 1);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("external source"));
    }

    #[test]
    fn lockfile_member_clean() {
        let lock = "[[package]]\nname = \"tsn\"\nversion = \"0.1.0\"\ndependencies = [\n \"tsn-core\",\n]\n";
        let (f, pkgs) = check_lockfile(lock, &["tsn".to_string()]);
        assert!(f.is_empty());
        assert_eq!(pkgs[0].dependencies, vec!["tsn-core".to_string()]);
    }
}

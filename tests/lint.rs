//! Tier-1 self-test for `tsn-lint` (DESIGN.md §14).
//!
//! Three obligations, all load-bearing:
//!
//! 1. **The workspace is clean.** `lint_workspace` over this repository
//!    must report zero findings and zero unjustified pragmas — the same
//!    gate CI runs via `cargo run -p tsn-lint`.
//! 2. **Every rule actually fires.** For each shipped rule,
//!    a planted violation must produce exactly the expected finding; a
//!    rule that silently stops matching would otherwise rot unnoticed
//!    behind obligation 1.
//! 3. **The settable surface is inventoried.** Config fields, builder
//!    methods, CLI flags and environment variables, read from the
//!    sources with the lexer, must equal the committed
//!    `tests/golden/settable_surface.txt`.

use std::path::Path;

use tsn_lint::engine::{classify, lint_source, lint_workspace};
use tsn_lint::lexer::lex;
use tsn_lint::rules::{check_crate_root, check_lockfile, FileScope, Finding, RuleId};

fn rules_fired(findings: &[Finding]) -> Vec<RuleId> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------------
// Obligation 1: the workspace itself is clean.
// ---------------------------------------------------------------------

#[test]
fn workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace lints");
    let rendered: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: {}: {}", f.path, f.line, f.rule.name(), f.message))
        .collect();
    assert!(
        report.is_clean(),
        "tsn-lint found violations in the workspace:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_scanned > 100, "the walk saw the whole tree");
    assert!(
        !report.packages.is_empty(),
        "Cargo.lock package inventory resolved"
    );
}

#[test]
fn workspace_pragmas_all_carry_justifications() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace lints");
    for p in &report.pragmas {
        assert!(
            !p.justification.trim().is_empty(),
            "{}:{}: pragma for {} has an empty justification",
            p.path,
            p.line,
            p.rule.name()
        );
        assert!(
            p.used,
            "{}:{}: stale pragma survived the walk",
            p.path, p.line
        );
    }
    assert_eq!(
        report.suppressed.len(),
        report.pragmas.len(),
        "every recorded pragma suppresses exactly one finding"
    );
}

// ---------------------------------------------------------------------
// Obligation 2: each rule fires on a planted violation.
// ---------------------------------------------------------------------

#[test]
fn rule_hash_iter_fires() {
    let src = r#"
use std::collections::HashMap;
pub fn tally(votes: &HashMap<u32, u32>) -> u32 {
    let mut total = 0;
    for (_, v) in votes.iter() {
        total += v;
    }
    total
}
"#;
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert!(
        rules_fired(&findings).contains(&RuleId::HashIter),
        "planted HashMap iteration not caught: {findings:?}"
    );
}

#[test]
fn rule_hash_iter_spares_test_scope() {
    let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32,u32>) { for k in m.keys() { let _ = k; } }\n";
    assert!(
        lint_source(FileScope::Test, "fixture.rs", src).is_empty(),
        "integration-test scope is exempt from hash-iter"
    );
}

#[test]
fn rule_wall_clock_fires() {
    let src = "pub fn stamp() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::WallClock]);
    assert_eq!(findings[0].line, 2);
}

#[test]
fn rule_wall_clock_fires_even_in_bench_scope() {
    // Bench code may use wall-clock time, but only behind a visible,
    // justified pragma — the bare call still fires.
    let src = "fn measure() { let _ = std::time::Instant::now(); }\n";
    let findings = lint_source(FileScope::Bench, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::WallClock]);
}

#[test]
fn rule_foreign_rng_fires() {
    let src = "pub fn roll() -> u64 {\n    let x = rand::thread_rng();\n    x\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert!(
        rules_fired(&findings).contains(&RuleId::ForeignRng),
        "planted thread_rng not caught: {findings:?}"
    );
}

#[test]
fn rule_no_unwrap_fires() {
    let src = "pub fn first(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::NoUnwrap]);
    assert_eq!(findings[0].line, 2);
}

#[test]
fn rule_no_unwrap_spares_cfg_test_modules() {
    let src = "pub fn ok() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert!(
        lint_source(FileScope::Library, "fixture.rs", src).is_empty(),
        "#[cfg(test)] regions are exempt from no-unwrap"
    );
}

#[test]
fn rule_thread_spawn_fires_outside_the_steal_helper() {
    let src = "pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| ()); });\n    let _ = std::thread::spawn(|| ());\n    let _ = std::thread::Builder::new();\n}\n";
    for scope in [FileScope::Library, FileScope::Bench, FileScope::Test] {
        let findings = lint_source(scope, "crates/core/src/fixture.rs", src);
        assert_eq!(
            rules_fired(&findings),
            vec![RuleId::ThreadSpawn; 3],
            "{scope:?}: {findings:?}"
        );
        assert_eq!(
            findings.iter().map(|f| f.line).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }
}

#[test]
fn rule_thread_spawn_spares_the_steal_helper() {
    let src = "pub fn run() {\n    std::thread::scope(|s| { s.spawn(|| ()); });\n}\n";
    assert!(lint_source(FileScope::Library, "crates/simnet/src/steal.rs", src).is_empty());
    // Asking how many threads exist starts none.
    let src = "pub fn n() -> usize {\n    std::thread::available_parallelism().map_or(1, |c| c.get())\n}\n";
    assert!(lint_source(FileScope::Library, "crates/core/src/fixture.rs", src).is_empty());
}

#[test]
fn rule_forbid_unsafe_fires() {
    let bad = lex("//! A crate.\npub fn f() {}\n");
    let finding = check_crate_root("crates/x/src/lib.rs", &bad).expect("missing attribute caught");
    assert_eq!(finding.rule, RuleId::ForbidUnsafe);

    let good = lex("//! A crate.\n#![forbid(unsafe_code)]\npub fn f() {}\n");
    assert!(check_crate_root("crates/x/src/lib.rs", &good).is_none());
}

#[test]
fn rule_workspace_purity_fires() {
    let members = vec!["tsn-core".to_string()];
    let lock = r#"
version = 3

[[package]]
name = "tsn-core"
version = "0.1.0"

[[package]]
name = "serde"
version = "1.0.200"
source = "registry+https://github.com/rust-lang/crates.io-index"
"#;
    let (findings, packages) = check_lockfile(lock, &members);
    assert_eq!(rules_fired(&findings), vec![RuleId::WorkspacePurity]);
    assert!(findings[0].message.contains("serde"));
    assert_eq!(packages.len(), 2, "inventory lists every resolved package");

    let clean = r#"
[[package]]
name = "tsn-core"
version = "0.1.0"
"#;
    let (findings, _) = check_lockfile(clean, &members);
    assert!(findings.is_empty());
}

// ---------------------------------------------------------------------
// Pragma semantics: suppression needs a justification, and the
// justification must target the right rule.
// ---------------------------------------------------------------------

#[test]
fn justified_pragma_suppresses() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n    // tsn-lint: allow(no-unwrap, \"fixture: slice is non-empty by contract\")\n    *v.first().unwrap()\n}\n";
    assert!(lint_source(FileScope::Library, "fixture.rs", src).is_empty());
}

#[test]
fn pragma_without_justification_is_itself_a_violation() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n    // tsn-lint: allow(no-unwrap)\n    *v.first().unwrap()\n}\n";
    let fired = rules_fired(&lint_source(FileScope::Library, "fixture.rs", src));
    assert!(
        fired.contains(&RuleId::PragmaHygiene),
        "bare pragma accepted: {fired:?}"
    );
    assert!(
        fired.contains(&RuleId::NoUnwrap),
        "bare pragma must not suppress"
    );
}

#[test]
fn stale_pragma_is_flagged() {
    let src = "// tsn-lint: allow(no-unwrap, \"nothing here needs it\")\npub fn f() {}\n";
    let fired = rules_fired(&lint_source(FileScope::Library, "fixture.rs", src));
    assert_eq!(fired, vec![RuleId::PragmaHygiene]);
}

#[test]
fn wrong_rule_pragma_does_not_suppress() {
    let src = "pub fn f(v: &[u32]) -> u32 {\n    // tsn-lint: allow(wall-clock, \"fixture: misdirected\")\n    *v.first().unwrap()\n}\n";
    let fired = rules_fired(&lint_source(FileScope::Library, "fixture.rs", src));
    assert!(fired.contains(&RuleId::NoUnwrap));
    assert!(
        fired.contains(&RuleId::PragmaHygiene),
        "misdirected pragma is stale"
    );
}

// ---------------------------------------------------------------------
// Lexer discipline: rules must only ever see the code channel.
// ---------------------------------------------------------------------

#[test]
fn violations_in_comments_and_strings_do_not_fire() {
    let src = concat!(
        "//! Discusses Instant::now() and .unwrap() at length.\n",
        "/* block comment: thread_rng() /* nested: SystemTime */ still comment */\n",
        "pub fn f() -> &'static str {\n",
        "    \"Instant::now() inside a string\"\n",
        "}\n",
        "pub fn g() -> &'static str {\n",
        "    r#\"raw string with .unwrap() and \"quotes\" inside\"#\n",
        "}\n",
    );
    assert!(
        lint_source(FileScope::Library, "fixture.rs", src).is_empty(),
        "literal/comment channel leaked into the rules"
    );
}

#[test]
fn line_comment_marker_inside_string_stays_code() {
    // `//` inside a string must not comment out the rest of the line —
    // the violation after it still fires.
    let src = "pub fn f() { let _ = (\"https://x\", std::time::Instant::now()); }\n";
    let findings = lint_source(FileScope::Library, "fixture.rs", src);
    assert_eq!(rules_fired(&findings), vec![RuleId::WallClock]);
}

// ---------------------------------------------------------------------
// Scope classification: the walk maps paths to the right rule sets.
// ---------------------------------------------------------------------

#[test]
fn classify_maps_paths_to_scopes() {
    assert_eq!(classify("crates/core/src/trust.rs"), FileScope::Library);
    assert_eq!(classify("crates/bench/src/harness.rs"), FileScope::Bench);
    assert_eq!(
        classify("crates/bench/benches/service.rs"),
        FileScope::Bench
    );
    assert_eq!(classify("tests/lint.rs"), FileScope::Test);
    assert_eq!(classify("examples/mega_scale.rs"), FileScope::Example);
    assert_eq!(classify("src/bin/tsn.rs"), FileScope::Bin);
}

// ---------------------------------------------------------------------
// The settable surface: every value a caller can set, committed as an
// inventory so a change that adds or removes a knob shows it in its
// diff. Regenerate with `GOLDEN_REGEN=1 cargo test --test lint`.
// ---------------------------------------------------------------------

/// The `.rs` files under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// A file's raw and lexed lines before its first top-level
/// `#[cfg(test)]` (the unit-test module).
fn non_test_lines(path: &Path) -> (Vec<String>, Vec<String>) {
    let source = std::fs::read_to_string(path).expect("readable source");
    let mut code = lex(&source).code;
    let mut raw: Vec<String> = source.lines().map(str::to_owned).collect();
    if let Some(cut) = code.iter().position(|l| l.starts_with("#[cfg(test)]")) {
        code.truncate(cut);
    }
    raw.truncate(code.len());
    (raw, code)
}

/// The contents of the one-line string literals in `raw`, located
/// through the lexed `code` channel (which keeps the quotes and blanks
/// what lies between them character for character).
fn string_literals(raw: &[String], code: &[String]) -> Vec<String> {
    let mut literals = Vec::new();
    for (raw, code) in raw.iter().zip(code) {
        let raw: Vec<char> = raw.chars().collect();
        let quotes: Vec<usize> = code
            .chars()
            .enumerate()
            .filter(|&(_, c)| c == '"')
            .map(|(i, _)| i)
            .collect();
        for pair in quotes.chunks_exact(2) {
            if let Some(body) = raw.get(pair[0] + 1..pair[1]) {
                literals.push(body.iter().collect());
            }
        }
    }
    literals
}

/// The identifier that starts `text`.
fn leading_ident(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// One line per settable value, sorted within each kind:
/// * `config <Struct>.<field>` — the `pub` fields of every `*Config`
///   struct in the library crates;
/// * `builder ScenarioBuilder::<method>` — its `pub fn`s;
/// * `cli <--flag>` — the flag literals of `tsn-cli`;
/// * `env <NAME>` — every environment variable the tree reads.
fn settable_surface(root: &Path) -> String {
    let mut config = Vec::new();
    for path in rust_files(&root.join("crates")) {
        let rel = path.strip_prefix(root).expect("under the root");
        if !rel.components().any(|c| c.as_os_str() == "src")
            || rel.components().any(|c| c.as_os_str() == "bin")
        {
            continue;
        }
        let (_, code) = non_test_lines(&path);
        let mut open: Option<(String, i32)> = None;
        for line in &code {
            let trimmed = line.trim();
            if let Some((name, depth)) = open.as_mut() {
                if *depth == 1 {
                    if let Some(field) = trimmed.strip_prefix("pub ") {
                        config.push(format!("config {name}.{}", leading_ident(field)));
                    }
                }
                *depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
                if *depth <= 0 {
                    open = None;
                }
            } else if let Some(rest) = trimmed.strip_prefix("pub struct ") {
                let name = leading_ident(rest);
                if name.ends_with("Config") && trimmed.ends_with('{') {
                    open = Some((name.to_owned(), 1));
                }
            }
        }
    }
    let mut builder = Vec::new();
    let (_, code) = non_test_lines(&root.join("crates/core/src/runner/builder.rs"));
    let mut in_impl = false;
    for line in &code {
        if line.starts_with("impl ScenarioBuilder ") {
            in_impl = true;
        } else if line.starts_with('}') {
            in_impl = false;
        } else if let Some(rest) = line.trim().strip_prefix("pub fn ") {
            if in_impl {
                builder.push(format!("builder ScenarioBuilder::{}", leading_ident(rest)));
            }
        }
    }
    let (raw, code) = non_test_lines(&root.join("src/bin/tsn-cli.rs"));
    let cli: Vec<String> = string_literals(&raw, &code)
        .into_iter()
        .filter(|s| {
            let name = s.strip_prefix("--").unwrap_or_default();
            !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '-')
        })
        .map(|s| format!("cli {s}"))
        .collect();
    let mut env = Vec::new();
    for dir in ["crates", "src", "examples", "tests", "perfbench/src"] {
        for path in rust_files(&root.join(dir)) {
            let (mut raw, mut code) = non_test_lines(&path);
            if !code.iter().any(|l| l.contains("env::var")) {
                continue;
            }
            // Names are SCREAMING_SNAKE literals, read directly or
            // through a helper (`env_usize("MEGA_NODES", ..)`); a
            // compile-time `env!` is not a setting.
            for (raw, code) in raw.iter_mut().zip(code.iter_mut()) {
                if code.contains("env!(") {
                    raw.clear();
                    code.clear();
                }
            }
            env.extend(
                string_literals(&raw, &code)
                    .into_iter()
                    .filter(|s| {
                        s.starts_with(|c: char| c.is_ascii_uppercase())
                            && s.contains('_')
                            && s.chars()
                                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                    })
                    .map(|s| format!("env {s}")),
            );
        }
    }
    let mut out = String::from(
        "# Settable surface: config fields, ScenarioBuilder methods, tsn-cli flags,\n\
         # environment variables. Regenerate: GOLDEN_REGEN=1 cargo test --test lint\n",
    );
    for mut kind in [config, builder, cli, env] {
        kind.sort();
        kind.dedup();
        for line in kind {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn settable_surface_matches_inventory() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let actual = settable_surface(root);
    let path = root.join("tests/golden/settable_surface.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &actual).expect("write inventory");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {}: {e}; run with GOLDEN_REGEN=1", path.display()));
    assert_eq!(
        expected, actual,
        "the settable surface changed; review the diff and regenerate the inventory"
    );
}

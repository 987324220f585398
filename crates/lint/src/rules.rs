//! The deny-by-default rule set.
//!
//! Every rule reports [`Violation`]s against the masked source (see
//! [`crate::scan`]); a violation is suppressed by a
//! `// lint:allow(rule, reason)` comment on the same line or on a
//! comment-only line directly above it. The reason is mandatory — an allow
//! without one is itself a violation (`allow-syntax`).
//!
//! | rule              | forbids                                              |
//! |-------------------|------------------------------------------------------|
//! | `wall-clock`      | `Instant::now` / `SystemTime::now` outside the bench |
//! |                   | harness, `replay-bench/` and tests (simulated time   |
//! |                   | only)                                                |
//! | `raw-lock`        | `std::sync::Mutex` / `RwLock` outside `stdshim` (the |
//! |                   | wrappers carry the lock-order sanitizer)             |
//! | `map-iteration`   | iterating `HashMap`/`HashSet` bindings in the        |
//! |                   | deterministic result-path crates                     |
//! | `unwrap`          | `.unwrap()` / `.expect(` in non-test library code    |
//! | `atomic-ordering` | `Ordering::Relaxed` as the success ordering of a     |
//! |                   | store/swap/CAS/`fetch_or`/`fetch_and`/`fetch_update` |
//! |                   | (publication ops; pure counters stay Relaxed)        |
//! | `atomic-seqcst`   | `Ordering::SeqCst` in the request-path crates (a     |
//! |                   | per-request full fence; acq/rel suffices everywhere) |
//! | `atomic-facade`   | raw `std::sync::atomic` in the slot-protocol modules |
//! |                   | (must route through `stdshim::atomic` so the model   |
//! |                   | checker sees every access)                           |
//! | `unchecked-cas`   | discarding a `compare_exchange[_weak]` /             |
//! |                   | `fetch_update` result (bare statement or `let _ =`)  |
//! | `hermetic-deps`   | non-path dependencies in any `Cargo.toml`            |

use crate::scan::{scan, Scanned};

/// One rule violation at a file/line.
#[derive(Debug)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (the name `lint:allow` must reference).
    pub rule: &'static str,
    /// Human-readable description.
    pub msg: String,
}

impl Violation {
    fn new(file: &str, line: usize, rule: &'static str, msg: String) -> Self {
        Violation {
            file: file.to_string(),
            line,
            rule,
            msg,
        }
    }
}

/// Crates whose results must be bit-for-bit deterministic: the discrete-event
/// clock substitutes for the paper's real testbed, so iteration order leaking
/// into results would corrupt the experiment itself.
const DETERMINISTIC_CRATES: [&str; 3] = [
    "crates/container-sim/",
    "crates/simclock/",
    "crates/predictor/",
];

/// True for paths whose code is test/bench/example scaffolding rather than
/// library code.
fn is_test_scaffolding(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("examples/")
        || rel.contains("/examples/")
}

/// True if `needle` occurs in `hay` ending at a word boundary (the next char
/// is not part of an identifier). Returns the byte offset of the match.
fn find_word(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        let at = from + i;
        let end = at + needle.len();
        let boundary = hay[end..]
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        if boundary {
            return Some(at);
        }
        from = end;
    }
    None
}

/// Parsed `lint:allow(rule, reason)` escapes found on one line, plus any
/// malformed occurrences (missing reason / unclosed parens).
fn parse_allows(text: &str) -> (Vec<String>, Vec<String>) {
    const MARKER: &str = "lint:allow(";
    let mut rules = Vec::new();
    let mut malformed = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find(MARKER) {
        let args_start = i + MARKER.len();
        let Some(close) = rest[args_start..].find(')') else {
            malformed.push("`lint:allow(` without a closing `)`".to_string());
            break;
        };
        let args = &rest[args_start..args_start + close];
        match args.split_once(',') {
            Some((rule, reason)) if !reason.trim().is_empty() => {
                rules.push(rule.trim().to_string());
            }
            _ => malformed.push(format!(
                "`lint:allow({args})` is missing a reason — the escape hatch \
                 requires `lint:allow(rule, reason)`"
            )),
        }
        rest = &rest[args_start + close..];
    }
    (rules, malformed)
}

/// The allow rules that cover line `idx` (0-based): escapes in the line's
/// own comment or on a comment-only line directly above. Parsed from the
/// comments view, so `lint:allow` inside a string literal is inert.
fn allows_for(scanned: &Scanned, idx: usize) -> Vec<String> {
    let mut rules = parse_allows(&scanned.comments[idx]).0;
    if idx > 0 && scanned.raw[idx - 1].trim().starts_with("//") {
        rules.extend(parse_allows(&scanned.comments[idx - 1]).0);
    }
    rules
}

/// Collects identifiers bound to hash-ordered containers in this file: field
/// and binding declarations (`name: HashMap<…>`, `name = HashMap::new()`,
/// `name: &HashSet<…>`), so usage sites can be matched by name.
fn hash_container_idents(scanned: &Scanned) -> Vec<String> {
    let mut idents: Vec<String> = Vec::new();
    for line in &scanned.code {
        for marker in ["HashMap<", "HashMap::", "HashSet<", "HashSet::"] {
            let mut from = 0;
            while let Some(i) = line[from..].find(marker) {
                let at = from + i;
                // Walk backwards over `: ` / `= ` / `&`/`mut` to the ident.
                let before = line[..at].trim_end();
                let before = before
                    .strip_suffix("mut")
                    .map(str::trim_end)
                    .unwrap_or(before);
                let before = before
                    .strip_suffix('&')
                    .map(str::trim_end)
                    .unwrap_or(before);
                let before = before
                    .strip_suffix(':')
                    .or_else(|| before.strip_suffix('='))
                    .map(str::trim_end)
                    .unwrap_or("");
                let ident: String = before
                    .chars()
                    .rev()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                if !ident.is_empty()
                    && !ident.chars().next().is_some_and(|c| c.is_ascii_digit())
                    && !idents.contains(&ident)
                {
                    idents.push(ident);
                }
                from = at + marker.len();
            }
        }
    }
    idents
}

/// Crates on the request hot path, where a stray `SeqCst` is a full fence
/// per request. The workspace protocol is acquire/release: if a site truly
/// needs sequential consistency, the `lint:allow` reason must say why.
const REQUEST_PATH_CRATES: [&str; 4] = [
    "crates/stdshim/",
    "crates/core/",
    "crates/metrics/",
    "crates/faas/",
];

/// Modules carrying the lock-free slot protocol. Every atomic here must
/// route through the `stdshim::atomic` facade (`ShimAtomicU64` & co.) so the
/// `--cfg hotc_model` build puts it under the model checker — one raw
/// `std::sync::atomic` access is an interleaving the checker never explores.
const FACADE_MODULES: [&str; 2] = [
    "crates/stdshim/src/sync_slots.rs",
    "crates/core/src/shard.rs",
];

/// Atomic ops that *publish* state other threads read: a `Relaxed` success
/// ordering on one of these orders nothing and a reader can observe the
/// containing object half-written. Pure counter RMWs (`fetch_add`,
/// `fetch_sub`, `fetch_max`, `fetch_min`) and bare loads are the allowed
/// Relaxed idiom and are deliberately absent.
const PUBLICATION_OPS: [&str; 7] = [
    ".store(",
    ".swap(",
    ".compare_exchange(",
    ".compare_exchange_weak(",
    ".fetch_or(",
    ".fetch_and(",
    ".fetch_update(",
];

/// CAS-family ops whose `Result` encodes whether the update happened.
const CAS_OPS: [&str; 3] = [
    ".compare_exchange(",
    ".compare_exchange_weak(",
    ".fetch_update(",
];

/// The publication op on `code` whose *success* ordering is `Relaxed`, if
/// any. The success ordering is the first `Ordering::` argument after the
/// op (`compare_exchange(cur, new, success, failure)` — a `Relaxed`
/// *failure* ordering is idiomatic and legal). Calls split across lines are
/// handled by also looking at the next line for the ordering argument.
fn relaxed_publication(code: &str, next: Option<&str>) -> Option<&'static str> {
    let joined = next.map(|n| format!("{} {}", code.trim_end(), n.trim_start()));
    let hay = joined.as_deref().unwrap_or(code);
    if !hay.contains("Ordering::Relaxed") {
        return None;
    }
    for op in PUBLICATION_OPS {
        let Some(at) = code.find(op) else { continue };
        let after = &hay[at + op.len()..];
        let Some(o) = after.find("Ordering::") else {
            continue;
        };
        if after[o..].starts_with("Ordering::Relaxed") {
            return Some(op.trim_matches(['.', '(']));
        }
    }
    None
}

/// Whether the CAS-family call starting at `at` in line `idx` discards its
/// `Result`: statement position with nothing consuming the value (`;` right
/// after the call's closing paren) or an explicit `let _ =`. The closing
/// paren is matched over a few following lines so multi-line argument lists
/// resolve.
fn unchecked_cas(scanned: &Scanned, idx: usize, op: &str, at: usize) -> bool {
    let code = &scanned.code[idx];
    let before = code[..at].trim_start();
    if let Some(rest) = before.strip_prefix("let ") {
        // A named binding is an inspection; `let _ =` is the documented
        // don't-care discard this rule exists to flag.
        let bind = rest.trim_start();
        return bind.starts_with('_')
            && !bind
                .chars()
                .nth(1)
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
    }
    // Anything consuming the expression: an assignment or comparison, a
    // condition/guard keyword, a match arm, argument position (an open
    // paren pending on this line — also covers closure bodies), a continued
    // method chain, or a chain whose receiver sits on a previous line
    // (`match self\n.nanos\n.compare_exchange(…)` — the consumer is above).
    let consumed_before = before.contains('=')
        || ["if ", "while ", "match ", "return "]
            .iter()
            .any(|k| before.starts_with(k))
        || before.matches('(').count() > before.matches(')').count()
        || before.ends_with(',')
        || before.ends_with('.')
        || before.ends_with('&')
        || before.ends_with('!')
        || before.is_empty() && code.trim_start().starts_with('.');
    if consumed_before {
        return false;
    }
    // Statement position: walk to the call's matching `)` (window of a few
    // lines) and see whether anything consumes the Result after it.
    let window = scanned.code[idx..scanned.code.len().min(idx + 6)].join(" ");
    let start = code[..at].len() + op.len(); // first byte after the open paren
    let mut depth = 1i32;
    let mut rest = window[start..].char_indices();
    for (i, ch) in &mut rest {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    let after = window[start + i + ch.len_utf8()..].trim_start();
                    // `.method()` or `?` consume the Result; `;`, `}` or
                    // end-of-window leave it dropped on the floor.
                    return !(after.starts_with('.') || after.starts_with('?'));
                }
            }
            _ => {}
        }
    }
    false // unbalanced within the window: give the code the benefit of doubt
}

/// Iteration-looking accessors on a map/set binding whose order reaches the
/// caller. (`.get`/`.insert`/`.len` are point lookups and stay legal.)
const ITERATION_ACCESSORS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".drain(",
];

/// Runs every source rule over one `.rs` file.
pub fn check_rust_file(rel: &str, src: &str) -> Vec<Violation> {
    let scanned = scan(src);
    let mut out = Vec::new();
    let scaffolding = is_test_scaffolding(rel);
    let bench_crate = rel.starts_with("crates/bench/");
    // The outside-in benchmark package times its own replays, like the
    // bench harness; every other rule still applies to it.
    let bench_timing = bench_crate || rel.starts_with("replay-bench/");
    let stdshim_crate = rel.starts_with("crates/stdshim/");
    let deterministic = DETERMINISTIC_CRATES.iter().any(|c| rel.starts_with(c));
    let map_idents = if deterministic {
        hash_container_idents(&scanned)
    } else {
        Vec::new()
    };

    for (idx, code) in scanned.code.iter().enumerate() {
        let line_no = idx + 1;
        let in_test = scanned.test[idx];
        let mut candidates: Vec<(&'static str, String)> = Vec::new();

        // wall-clock: simulated time only — a real-clock read makes runs
        // unreproducible. Bench scaffolding measures real time by design.
        if !bench_timing && !scaffolding && !in_test {
            for pat in ["Instant::now", "SystemTime::now"] {
                if find_word(code, pat).is_some() {
                    candidates.push((
                        "wall-clock",
                        format!("`{pat}` reads the wall clock; simulation code must use SimTime"),
                    ));
                }
            }
        }

        // raw-lock: all locks go through stdshim so the lock-order sanitizer
        // sees them.
        if !stdshim_crate && code.contains("std::sync::") {
            for ty in ["Mutex", "RwLock"] {
                if let Some(at) = find_word(code, &format!("std::sync::{ty}")) {
                    let _ = at;
                    candidates.push((
                        "raw-lock",
                        format!(
                            "`std::sync::{ty}` bypasses the stdshim lock-order sanitizer; \
                             use `stdshim::{ty}`"
                        ),
                    ));
                }
            }
        }

        // map-iteration: deterministic crates must not let hash iteration
        // order reach results. Method chains are often split across lines
        // (`self\n.containers\n.iter()`), so accessors are also matched on
        // the join of each line with its successor.
        if deterministic && !scaffolding && !in_test {
            let next = scanned.code.get(idx + 1);
            let joined = next.map(|n| format!("{}{}", code.trim_end(), n.trim_start()));
            for ident in &map_idents {
                let mut hit = None;
                for acc in ITERATION_ACCESSORS {
                    let pat = format!("{ident}{acc}");
                    // A joined match counts only when it straddles the line
                    // break — a pattern whole on the next line is that
                    // line's own finding.
                    let straddles = joined.as_deref().is_some_and(|j| j.contains(&pat))
                        && !next.is_some_and(|n| n.contains(&pat));
                    if code.contains(&pat) || straddles {
                        hit = Some(pat);
                        break;
                    }
                }
                if hit.is_none() {
                    for form in [
                        format!(" in {ident}"),
                        format!(" in &{ident}"),
                        format!(" in &mut {ident}"),
                    ] {
                        if let Some(at) = code.find(&form) {
                            let end = at + form.len();
                            let boundary = code[end..]
                                .chars()
                                .next()
                                .is_none_or(|c| !c.is_alphanumeric() && c != '_' && c != '.');
                            if boundary && code.trim_start().starts_with("for ") {
                                hit = Some(form.trim_start().to_string());
                                break;
                            }
                        }
                    }
                }
                if let Some(expr) = hit {
                    candidates.push((
                        "map-iteration",
                        format!(
                            "`{expr}` iterates a hash container in a deterministic-result \
                             crate; sort first or prove order-insensitivity"
                        ),
                    ));
                }
            }
        }

        // atomic-ordering: a Relaxed success ordering on a publication op
        // (store/swap/CAS/bit-set) orders nothing — racing readers can see
        // the guarded state half-written. Counters stay Relaxed by idiom.
        if !scaffolding && !in_test {
            if let Some(op) =
                relaxed_publication(code, scanned.code.get(idx + 1).map(String::as_str))
            {
                candidates.push((
                    "atomic-ordering",
                    format!(
                        "`{op}` with a Relaxed success ordering publishes nothing; use \
                         Release/AcqRel, or justify the counter idiom with lint:allow"
                    ),
                ));
            }
        }

        // atomic-seqcst: the protocol is acquire/release end to end; SeqCst
        // on the request path is a silent per-request full fence.
        if !scaffolding
            && !in_test
            && code.contains("Ordering::SeqCst")
            && REQUEST_PATH_CRATES.iter().any(|c| rel.starts_with(c))
        {
            candidates.push((
                "atomic-seqcst",
                "`Ordering::SeqCst` in a request-path crate; the slot protocol is \
                 acquire/release — justify the full fence with lint:allow or weaken it"
                    .to_string(),
            ));
        }

        // atomic-facade: protocol modules must use the stdshim::atomic
        // facade so the model-checker build instruments every access.
        if !in_test && FACADE_MODULES.contains(&rel) && code.contains("std::sync::atomic") {
            candidates.push((
                "atomic-facade",
                "raw `std::sync::atomic` in a slot-protocol module; use the \
                 `stdshim::atomic` facade (ShimAtomicU64/ShimAtomicUsize/ShimOnceLock) \
                 so `--cfg hotc_model` builds put this access under the model checker"
                    .to_string(),
            ));
        }

        // unchecked-cas: a CAS that may fail but whose Result is discarded
        // is a race half-fixed — the failing path silently does nothing.
        if !scaffolding && !in_test {
            for op in CAS_OPS {
                if let Some(at) = code.find(op) {
                    if unchecked_cas(&scanned, idx, op, at) {
                        candidates.push((
                            "unchecked-cas",
                            format!(
                                "`{}` result discarded; handle the failure arm (retry, \
                                 fall back, or assert) instead of dropping it",
                                op.trim_matches(['.', '('])
                            ),
                        ));
                    }
                }
            }
        }

        // unwrap: library code returns typed errors; a panic in the gateway
        // is an availability bug, not error handling.
        if !bench_crate && !scaffolding && !in_test {
            if code.contains(".unwrap()") {
                candidates.push((
                    "unwrap",
                    "`.unwrap()` in library code; return a typed error or document the \
                     invariant with lint:allow"
                        .to_string(),
                ));
            }
            if code.contains(".expect(") {
                candidates.push((
                    "unwrap",
                    "`.expect(…)` in library code; return a typed error or document the \
                     invariant with lint:allow"
                        .to_string(),
                ));
            }
        }

        if !candidates.is_empty() {
            let allowed = allows_for(&scanned, idx);
            for (rule, msg) in candidates {
                if !allowed.iter().any(|a| a == rule) {
                    out.push(Violation::new(rel, line_no, rule, msg));
                }
            }
        }

        // Malformed allow escapes are violations wherever they appear in a
        // comment — a missing reason must not silently suppress nothing.
        for msg in parse_allows(&scanned.comments[idx]).1 {
            out.push(Violation::new(rel, line_no, "allow-syntax", msg));
        }
    }
    out
}

/// Keys inside a dependency entry's inline table that make it non-hermetic
/// (same set as `tests/hermetic.rs`, which remains as the tier-1 guard).
const FORBIDDEN_SOURCE_KEYS: [&str; 4] = ["git", "registry", "registry-index", "version"];

/// Registry crates that were replaced with in-repo code and must not return
/// under any section or table form.
const REPLACED_CRATES: [&str; 7] = [
    "rand",
    "proptest",
    "criterion",
    "crossbeam",
    "parking_lot",
    "bytes",
    "serde",
];

/// True if the section header opens a dependency table.
fn is_dependency_section(header: &str) -> bool {
    header == "dependencies"
        || header == "dev-dependencies"
        || header == "build-dependencies"
        || header.ends_with(".dependencies")
        || header.ends_with(".dev-dependencies")
        || header.ends_with(".build-dependencies")
}

/// One dependency line's hermeticity problem, if any.
fn check_dep_line(line: &str) -> Option<String> {
    let (key, value) = line.split_once('=')?;
    let key = key.trim();
    let value = value.trim();
    if value.starts_with('"') || value.starts_with('\'') {
        return Some(format!("`{key}` uses a registry version string ({value})"));
    }
    if value.starts_with('{') {
        if !value.contains("path") && !value.contains("workspace") {
            return Some(format!("`{key}` has neither `path` nor `workspace = true`"));
        }
        for forbidden in FORBIDDEN_SOURCE_KEYS {
            // Match the key position of an inline-table entry, not substrings
            // of other keys or values.
            let mut rest = value;
            while let Some(idx) = rest.find(forbidden) {
                let before = value.len() - rest.len() + idx;
                let prev = value[..before].trim_end().chars().next_back();
                let after = rest[idx + forbidden.len()..].trim_start().chars().next();
                if matches!(prev, Some('{') | Some(',')) && after == Some('=') {
                    return Some(format!("`{key}` sets `{forbidden}` ({value})"));
                }
                rest = &rest[idx + forbidden.len()..];
            }
        }
    }
    None
}

/// `hermetic-deps` over one `Cargo.toml`: every dependency must be a path
/// dependency into this workspace. No allow escape — hermeticity is absolute.
pub fn check_manifest(rel: &str, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut section = String::new();
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            section = line.trim_matches(['[', ']']).to_string();
            // `[dependencies.serde]`-style tables reintroduce a replaced
            // crate without tripping the line parser below.
            for name in REPLACED_CRATES {
                for table in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
                    if section == format!("{table}{name}") {
                        out.push(Violation::new(
                            rel,
                            line_no,
                            "hermetic-deps",
                            format!("replaced registry crate `{name}` reappeared as a table"),
                        ));
                    }
                }
            }
            continue;
        }
        if is_dependency_section(&section) {
            if let Some(problem) = check_dep_line(line) {
                out.push(Violation::new(rel, line_no, "hermetic-deps", problem));
            }
            for name in REPLACED_CRATES {
                if line.starts_with(&format!("{name} ")) || line.starts_with(&format!("{name}=")) {
                    out.push(Violation::new(
                        rel,
                        line_no,
                        "hermetic-deps",
                        format!("replaced registry crate `{name}` reappeared"),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn wall_clock_flagged_in_library_code() {
        let v = check_rust_file("crates/core/src/x.rs", "let t = Instant::now();\n");
        assert_eq!(rules_of(&v), ["wall-clock"]);
    }

    #[test]
    fn wall_clock_allowed_in_bench_and_tests() {
        assert!(check_rust_file("crates/bench/src/harness.rs", "Instant::now();\n").is_empty());
        assert!(check_rust_file("crates/core/tests/t.rs", "Instant::now();\n").is_empty());
        let gated = "#[cfg(test)]\nmod tests {\n fn t() { let _ = Instant::now(); }\n}\n";
        assert!(check_rust_file("crates/core/src/x.rs", gated).is_empty());
    }

    #[test]
    fn replay_bench_is_bench_scaffolding_for_wall_clock_only() {
        let timed = "let t = Instant::now();
";
        assert!(check_rust_file("replay-bench/src/replay.rs", timed).is_empty());
        // Only the wall-clock rule is relaxed there.
        let v = check_rust_file(
            "replay-bench/src/replay.rs",
            "x.unwrap();
",
        );
        assert_eq!(rules_of(&v), ["unwrap"]);
        // A look-alike path elsewhere is still checked.
        let v = check_rust_file("crates/core/src/replay-bench/x.rs", timed);
        assert_eq!(rules_of(&v), ["wall-clock"]);
    }

    #[test]
    fn wall_clock_in_comment_or_string_is_ignored() {
        let src = "// Instant::now() would be wrong\nlet s = \"Instant::now\";\n";
        assert!(check_rust_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_lock_flagged_outside_stdshim() {
        let v = check_rust_file("crates/core/src/x.rs", "use std::sync::Mutex;\n");
        assert_eq!(rules_of(&v), ["raw-lock"]);
        assert!(
            check_rust_file("crates/stdshim/src/sync.rs", "std::sync::Mutex::new(())").is_empty()
        );
        // Guard types don't match on the word boundary.
        assert!(check_rust_file("crates/core/src/x.rs", "use std::sync::MutexGuard;\n").is_empty());
        // Arc is fine.
        assert!(check_rust_file("crates/core/src/x.rs", "use std::sync::Arc;\n").is_empty());
    }

    #[test]
    fn map_iteration_flagged_in_deterministic_crates_only() {
        let src = "struct S { containers: HashMap<u64, u64> }\nfn f(s: &S) { for c in s.containers.values() {} }\n";
        let v = check_rust_file("crates/container-sim/src/x.rs", src);
        assert_eq!(rules_of(&v), ["map-iteration"]);
        assert!(check_rust_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn map_iteration_matches_split_method_chains() {
        let src = "struct S { containers: HashMap<u64, u64> }\nfn f(s: &S) {\n    let v: Vec<_> = s\n        .containers\n        .iter()\n        .collect();\n}\n";
        let v = check_rust_file("crates/container-sim/src/x.rs", src);
        assert_eq!(v.len(), 1, "one finding, not one per joined window");
        assert_eq!(v[0].rule, "map-iteration");
        assert_eq!(v[0].line, 4); // the `.containers` line
    }

    #[test]
    fn map_iteration_matches_borrowed_params() {
        let src = "fn f(m: &HashMap<u32, u32>, s: &mut HashSet<u32>) {\n    let _: Vec<_> = m.values().collect();\n    for x in s.iter() {\n        let _ = x;\n    }\n}\n";
        let v = check_rust_file("crates/predictor/src/x.rs", src);
        assert_eq!(rules_of(&v), ["map-iteration", "map-iteration"]);
    }

    #[test]
    fn map_point_lookups_are_fine() {
        let src = "struct S { m: HashMap<u64, u64> }\nfn f(s: &S) { s.m.get(&1); s.m.len(); }\n";
        assert!(check_rust_file("crates/predictor/src/x.rs", src).is_empty());
    }

    #[test]
    fn unwrap_flagged_and_allowed() {
        let v = check_rust_file("crates/core/src/x.rs", "x.unwrap();\ny.expect(\"m\");\n");
        assert_eq!(rules_of(&v), ["unwrap", "unwrap"]);
        let allowed = "x.unwrap(); // lint:allow(unwrap, index bounded by loop above)\n";
        assert!(check_rust_file("crates/core/src/x.rs", allowed).is_empty());
        let above = "// lint:allow(unwrap, checked two lines up)\nx.unwrap();\n";
        assert!(check_rust_file("crates/core/src/x.rs", above).is_empty());
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        let src = "x.unwrap_or_else(|| 0);\nx.unwrap_or(0);\ny.expect_err(\"no\");\n";
        assert!(check_rust_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "x.unwrap(); // lint:allow(unwrap)\n";
        let v = check_rust_file("crates/core/src/x.rs", src);
        assert!(rules_of(&v).contains(&"allow-syntax"));
        assert!(rules_of(&v).contains(&"unwrap"));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "x.unwrap(); // lint:allow(wall-clock, not the right rule)\n";
        let v = check_rust_file("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&v), ["unwrap"]);
    }

    #[test]
    fn atomic_ordering_flags_relaxed_publication_ops() {
        for src in [
            "x.store(1, Ordering::Relaxed);\n",
            "let old = x.swap(v, Ordering::Relaxed);\n",
            "let f = x.fetch_or(mask, Ordering::Relaxed);\n",
            "let f = x.fetch_and(!mask, Ordering::Relaxed);\n",
        ] {
            let v = check_rust_file("crates/core/src/x.rs", src);
            assert_eq!(rules_of(&v), ["atomic-ordering"], "src: {src}");
        }
        // Success ordering Relaxed on a CAS, even split across lines.
        let cas = "let r = x.compare_exchange(\n    a, b, Ordering::Relaxed, Ordering::Relaxed);\nr.is_ok();\n";
        assert_eq!(
            rules_of(&check_rust_file("crates/core/src/x.rs", cas)),
            ["atomic-ordering"]
        );
    }

    #[test]
    fn atomic_ordering_permits_counters_loads_and_failure_orderings() {
        let ok = "c.fetch_add(1, Ordering::Relaxed);\n\
                  c.fetch_sub(1, Ordering::Relaxed);\n\
                  w.fetch_max(n, Ordering::Relaxed);\n\
                  let v = x.load(Ordering::Relaxed);\n\
                  if x.compare_exchange(a, b, Ordering::Acquire, Ordering::Relaxed).is_ok() {}\n\
                  x.store(1, Ordering::Release);\n";
        assert!(check_rust_file("crates/core/src/x.rs", ok).is_empty());
        let allowed =
            "x.store(0, Ordering::Relaxed); // lint:allow(atomic-ordering, reset under lock)\n";
        assert!(check_rust_file("crates/core/src/x.rs", allowed).is_empty());
        // Tests and scaffolding may do what they like.
        assert!(
            check_rust_file("crates/core/tests/t.rs", "x.store(1, Ordering::Relaxed);\n")
                .is_empty()
        );
    }

    #[test]
    fn atomic_seqcst_flagged_on_request_path_only() {
        let src = "x.load(Ordering::SeqCst);\n";
        for rel in [
            "crates/core/src/x.rs",
            "crates/stdshim/src/x.rs",
            "crates/metrics/src/x.rs",
            "crates/faas/src/x.rs",
        ] {
            assert_eq!(
                rules_of(&check_rust_file(rel, src)),
                ["atomic-seqcst"],
                "{rel}"
            );
        }
        assert!(check_rust_file("crates/bench/src/x.rs", src).is_empty());
        assert!(check_rust_file("crates/core/tests/t.rs", src).is_empty());
    }

    #[test]
    fn atomic_facade_guards_protocol_modules() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        for rel in FACADE_MODULES {
            assert_eq!(
                rules_of(&check_rust_file(rel, src)),
                ["atomic-facade"],
                "{rel}"
            );
        }
        // Other modules (including the facade itself) may name std atomics.
        assert!(check_rust_file("crates/stdshim/src/atomic.rs", src).is_empty());
        assert!(check_rust_file("crates/core/src/concurrent.rs", src).is_empty());
        // Test scaffolding inside a protocol module is exempt.
        let gated = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicU64;\n}\n";
        assert!(check_rust_file("crates/core/src/shard.rs", gated).is_empty());
    }

    #[test]
    fn unchecked_cas_flags_discarded_results() {
        let bare = "x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire);\n";
        assert_eq!(
            rules_of(&check_rust_file("crates/core/src/x.rs", bare)),
            ["unchecked-cas"]
        );
        let underscore =
            "let _ = x.compare_exchange_weak(1, 0, Ordering::AcqRel, Ordering::Acquire);\n";
        assert_eq!(
            rules_of(&check_rust_file("crates/core/src/x.rs", underscore)),
            ["unchecked-cas"]
        );
        let multiline = "x.fetch_update(\n    Ordering::AcqRel,\n    Ordering::Acquire,\n    |v| Some(v + 1),\n);\n";
        assert_eq!(
            rules_of(&check_rust_file("crates/core/src/x.rs", multiline)),
            ["unchecked-cas"]
        );
    }

    #[test]
    fn unchecked_cas_permits_inspected_results() {
        let ok = "let won = x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire);\n\
                  if x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire).is_ok() {}\n\
                  match x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire) { _ => {} }\n\
                  x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire).ok();\n\
                  x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)?;\n\
                  assert!(x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire).is_ok());\n";
        assert!(check_rust_file("crates/core/src/x.rs", ok).is_empty());
        let chained_next = "x.compare_exchange(1, 0, Ordering::AcqRel, Ordering::Acquire)\n    .expect_err(\"must fail\");\n";
        assert!(check_rust_file("crates/core/src/x.rs", chained_next).is_empty());
        // Receiver above, op on a continuation line, result fed to `match`.
        let continuation = "match self\n    .nanos\n    .compare_exchange_weak(c, t, Ordering::AcqRel, Ordering::Acquire)\n{\n    Ok(_) => {}\n    Err(_) => {}\n}\n";
        assert!(check_rust_file("crates/core/src/x.rs", continuation).is_empty());
        // Inside a closure argument the result is the closure's value.
        let in_closure = "a.unwrap_or_else(|| inner.compare_exchange(c, n, Ordering::AcqRel, Ordering::Acquire))\n";
        assert!(check_rust_file("crates/core/src/x.rs", in_closure).is_empty());
    }

    #[test]
    fn hermetic_deps_rejects_registry_forms() {
        let toml = "[dependencies]\nserde = \"1\"\n";
        let v = check_manifest("crates/x/Cargo.toml", toml);
        assert!(v.iter().all(|v| v.rule == "hermetic-deps"));
        assert_eq!(v.len(), 2); // version string + replaced name

        let git = "[dependencies]\nfoo = { git = \"https://example.com/foo\" }\n";
        assert_eq!(check_manifest("c/Cargo.toml", git).len(), 1);

        let table = "[dependencies.serde]\nversion = \"1\"\n";
        assert!(!check_manifest("c/Cargo.toml", table).is_empty());

        let ok = "[dependencies]\nsimclock = { path = \"../simclock\" }\nstdshim = { workspace = true }\n";
        assert!(check_manifest("c/Cargo.toml", ok).is_empty());
    }
}

//! `detlint` — the workspace determinism linter.
//!
//! Every claim this reproduction makes rests on one invariant: reports are
//! a pure function of `(scheme, seed, config)`, bitwise identical across
//! thread counts and runs. This crate turns that convention into a
//! machine-checked contract: a static pass over every simulation and
//! report-path crate's Rust sources enforcing six named rules.
//!
//! # The rules
//!
//! * **D1** — no `std::collections` hash maps or hash sets. Their
//!   iteration order depends on a per-process (per-thread, per-instance)
//!   random hasher seed; `BTreeMap`/`BTreeSet` or sorted vectors are
//!   required. (The bug class that already shipped once: `FaultPlan`'s
//!   crashed-peer set made `crashed_nodes()` run-dependent until PR 3
//!   converted it to a `BTreeSet` — see `simnet::faults`.)
//! * **D2** — no wall-clock reads (`Instant::now`, `SystemTime::now`)
//!   outside an explicitly annotated timing site. The scanned tree has no
//!   such site: every report is simulated time, and wall time is measured
//!   only by the `bench/` harness, which sits outside the scanned roots.
//! * **D3** — no ambient or shared-RNG draws (`thread_rng`, `from_entropy`,
//!   `rand::random`): delivery and dispatch paths must derive all
//!   randomness as pure functions of `(seed, index)` — the bug class of
//!   the simulator's old scheduling-jitter model (since deleted), whose
//!   draws from a shared stream in delivery order leaked scheduling order
//!   into edge costs.
//! * **D4** — no unordered iteration (`.keys()` / `.values()` /
//!   `.drain()` / `.iter()` / `for … in`) over a hash collection flowing
//!   onward without an intervening sort. This is the rule that catches a
//!   hash map that survived D1 behind a pragma but then leaks its order —
//!   and the rule that flags the pre-fix `skipgraph` level-builder, whose
//!   `groups.values()` walked membership groups in hash order.
//! * **D5** — no `println!` / `eprintln!` / `dbg!` in **library** code.
//!   Library functions return strings and reports; only binaries, tests,
//!   examples, benches, and `main.rs`/`build.rs` may print. The rule keeps
//!   the observability plane honest: a trace or metric that goes to stdout
//!   from inside a library bypasses the deterministic report path (and
//!   `dbg!` left behind after a debugging session interleaves
//!   nondeterministically under the parallel driver). Files whose path
//!   contains a `bin`, `tests`, `examples`, or `benches` component — and
//!   `main.rs`/`build.rs` themselves — are allowlisted by construction.
//! * **D6** — no `.clone()` of query-path routing state (`FaultPlan`,
//!   `NetModel`, `KautzRegion`) in library code. These types are the
//!   per-query constants of the hot path; the zero-allocation work gave
//!   every consumer a borrow-or-intern alternative (`Sim::with_faults`
//!   borrows the caller's plan, schemes hold region tables by index), so a
//!   clone on a query path is an O(plan)-per-query allocation regression
//!   waiting to happen. Per-run setup clones (a sweep handing an owned
//!   plan to a worker) are legitimate and carry audited pragmas. The same
//!   path allowlist as D5 applies: binaries, tests, examples, and benches
//!   may clone freely.
//!
//! # Pragmas
//!
//! Audited exceptions are annotated in source:
//!
//! ```text
//! // detlint: allow(D1) — audited: map is read only through a sorted key list
//! ```
//!
//! A pragma names one or more rules (`allow(D1, D4)`) and **must** carry a
//! reason after a `—`, `-`, or `:` separator; a reasonless pragma does not
//! suppress anything and is itself reported. A pragma written as a
//! trailing comment covers its own line; written on a line of its own it
//! covers the next line that contains code.
//!
//! # Scope
//!
//! [`scan_workspace`] walks `crates/`, `src/`, `tests/`, and `examples/`.
//! `shims/` is excluded by design — those crates are offline stand-ins for
//! external dependencies (`criterion`'s stopwatch is wall-clock because
//! real criterion's is) and never execute on a simulation or report path.
//! The linter's own seeded-violation fixtures under
//! `crates/detlint/fixtures/` are excluded from the workspace pass and
//! scanned by the self-tests instead, which assert that every rule fires
//! there (the lint is itself tested before it is trusted as a CI gate).
//!
//! The scanner is lexical, not type-directed: it strips comments, string
//! and char literals with a small state machine, then matches rule tokens
//! at identifier boundaries. D4 additionally tracks which `let` bindings
//! and struct fields were declared with a hash-collection type and flags
//! unordered-iteration calls on those names unless a `sort` appears within
//! the next few lines. That is deliberately conservative in both
//! directions — which is why the static pass is paired with the runtime
//! canary (`dht_api::DigestReport` + `tests/hasher_perturbation.rs` at the
//! workspace root): the rules catch the pattern, the canary catches
//! whatever the rules miss.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

/// The named determinism rules of the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// No hash maps / hash sets in simulation or report-path code.
    D1,
    /// No wall-clock reads outside an annotated timing site.
    D2,
    /// No ambient / shared-RNG draws.
    D3,
    /// No unordered iteration over hash collections without a sort.
    D4,
    /// No `println!`/`eprintln!`/`dbg!` in library code (binaries, tests,
    /// examples, and benches are allowlisted by path).
    D5,
    /// No `.clone()` of query-path routing state (`FaultPlan`, `NetModel`,
    /// `KautzRegion`) in library code — borrow or intern instead.
    D6,
    /// Pragma hygiene: a pragma comment that is malformed or carries no
    /// reason (not part of the 6-rule contract, but reported so a broken
    /// annotation can never silently stop suppressing).
    BadPragma,
}

/// The six contract rules, in order.
pub const RULES: [Rule; 6] = [Rule::D1, Rule::D2, Rule::D3, Rule::D4, Rule::D5, Rule::D6];

impl Rule {
    /// The identifier used in pragmas and reports.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D1 => "D1",
            Rule::D2 => "D2",
            Rule::D3 => "D3",
            Rule::D4 => "D4",
            Rule::D5 => "D5",
            Rule::D6 => "D6",
            Rule::BadPragma => "pragma",
        }
    }

    /// Parses a pragma rule identifier (case-sensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        match s.trim() {
            "D1" => Some(Rule::D1),
            "D2" => Some(Rule::D2),
            "D3" => Some(Rule::D3),
            "D4" => Some(Rule::D4),
            "D5" => Some(Rule::D5),
            "D6" => Some(Rule::D6),
            _ => None,
        }
    }

    /// One-line statement of what the rule forbids.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D1 => "hash collection in simulation/report-path code (use BTree or sorted vec)",
            Rule::D2 => "wall-clock read outside the annotated timing allowlist",
            Rule::D3 => "ambient/shared-RNG draw (randomness must be a pure function of seed)",
            Rule::D4 => "unordered iteration over a hash collection without an intervening sort",
            Rule::D5 => "stdout/stderr print in library code (return a String; binaries print)",
            Rule::D6 => "clone of query-path routing state (borrow the plan/model/region instead)",
            Rule::BadPragma => "malformed or reasonless pragma",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path of the offending file (as given to the scanner).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
    /// The token or pattern that fired.
    pub token: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// One audited exception: a violation suppressed by a reasoned pragma.
#[derive(Debug, Clone)]
pub struct Allowance {
    /// Path of the annotated file.
    pub file: PathBuf,
    /// 1-based line number of the suppressed violation.
    pub line: usize,
    /// The rule suppressed.
    pub rule: Rule,
    /// The audit reason carried by the pragma.
    pub reason: String,
}

/// The result of a scan: violations, audited exceptions, and coverage.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Unsuppressed violations (the scan fails if any exist).
    pub findings: Vec<Finding>,
    /// Violations suppressed by reasoned pragmas (the audit trail).
    pub allowed: Vec<Allowance>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when no unsuppressed violation was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one rule.
    pub fn findings_for(&self, rule: Rule) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.rule == rule).collect()
    }

    /// Renders the machine-readable JSON report (hand-rolled — the build
    /// environment has no serde; same convention as `BENCH_baseline.json`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(s, "  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            let comma = if i + 1 < self.findings.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{ \"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"token\": \"{}\", \
                 \"snippet\": \"{}\" }}{comma}",
                json_escape(&f.file.display().to_string()),
                f.line,
                f.rule,
                json_escape(&f.token),
                json_escape(&f.snippet),
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"allowed\": [");
        for (i, a) in self.allowed.iter().enumerate() {
            let comma = if i + 1 < self.allowed.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{ \"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
                 \"reason\": \"{}\" }}{comma}",
                json_escape(&a.file.display().to_string()),
                a.line,
                a.rule,
                json_escape(&a.reason),
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for f in &self.findings {
            let _ = writeln!(
                s,
                "{}:{}: [{}] `{}` — {}\n    {}",
                f.file.display(),
                f.line,
                f.rule,
                f.token,
                f.rule.summary(),
                f.snippet,
            );
        }
        let _ = writeln!(
            s,
            "detlint: {} file(s) scanned, {} violation(s), {} audited exception(s)",
            self.files_scanned,
            self.findings.len(),
            self.allowed.len(),
        );
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Source pre-pass: split code from comments.
// ---------------------------------------------------------------------------

/// One source line split into its code text (string/char literals blanked,
/// comments removed) and its comment text (for pragma parsing).
#[derive(Debug, Clone, Default)]
struct SplitLine {
    code: String,
    comment: String,
}

/// Strips comments and literals with a small state machine. Rust block
/// comments nest; strings handle escapes; raw strings handle `#` fences;
/// `'` opens a char literal only when one closes shortly (otherwise it is
/// a lifetime). Newlines always advance the line counter, whatever state
/// is active, so findings keep their true line numbers.
fn split_lines(text: &str) -> Vec<SplitLine> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut out: Vec<SplitLine> = Vec::new();
    let mut cur = SplitLine::default();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if st == St::Line {
                st = St::Code;
            }
            out.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match st {
            St::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    st = St::Line;
                    i += 2;
                    continue;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::Block(1);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    cur.code.push(' ');
                    st = St::Str;
                    i += 1;
                    continue;
                }
                // Raw (and raw-byte) string openers: r"…", r#"…"#, br"…".
                if c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')) {
                    let prev_ident =
                        i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                    let mut j = i + if c == 'b' { 2 } else { 1 };
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if !prev_ident && chars.get(j) == Some(&'"') {
                        cur.code.push(' ');
                        st = St::RawStr(hashes);
                        i = j + 1;
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal iff it closes shortly; else a lifetime.
                    let is_char = match chars.get(i + 1) {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char {
                        cur.code.push(' ');
                        st = St::Char;
                        i += 1;
                        continue;
                    }
                }
                cur.code.push(c);
                i += 1;
            }
            St::Line => {
                cur.comment.push(c);
                i += 1;
            }
            St::Block(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    st = St::Block(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            St::Str => {
                if c == '\\' && chars.get(i + 1) != Some(&'\n') {
                    i += 2;
                } else {
                    if c == '"' {
                        st = St::Code;
                    }
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
            St::Char => {
                if c == '\\' && chars.get(i + 1) != Some(&'\n') {
                    i += 2;
                } else {
                    if c == '\'' {
                        st = St::Code;
                    }
                    i += 1;
                }
            }
        }
    }
    out.push(cur);
    out
}

// ---------------------------------------------------------------------------
// Pragmas.
// ---------------------------------------------------------------------------

/// A parsed pragma (the grammar in the crate docs).
#[derive(Debug, Clone)]
struct Pragma {
    rules: Vec<Rule>,
    reason: String,
    /// True when the pragma comment shared its line with code (covers that
    /// line); false for a standalone comment line (covers the next code
    /// line).
    trailing: bool,
}

/// Parses the pragma out of one line's comment text, if present. A pragma
/// must *start* the comment (after doc-comment markers), so prose that
/// merely mentions the grammar never parses as one. Returns `Err(token)`
/// for a pragma-shaped comment that does not parse.
fn parse_pragma(comment: &str, has_code: bool) -> Option<Result<Pragma, String>> {
    let t = comment.trim_start_matches(['!', '/', ' ', '\t']);
    let rest = t.strip_prefix("detlint:")?.trim_start();
    let Some(body) = rest.strip_prefix("allow(") else {
        return Some(Err(rest.chars().take(40).collect()));
    };
    let Some(close) = body.find(')') else {
        return Some(Err(rest.chars().take(40).collect()));
    };
    let mut rules = Vec::new();
    for part in body[..close].split(',') {
        match Rule::parse(part) {
            Some(r) => rules.push(r),
            None => return Some(Err(part.trim().to_string())),
        }
    }
    if rules.is_empty() {
        return Some(Err("allow()".to_string()));
    }
    // The reason follows a separator: em-dash, en-dash, hyphen, or colon.
    let tail = body[close + 1..].trim_start();
    let reason = tail
        .strip_prefix('—')
        .or_else(|| tail.strip_prefix('–'))
        .or_else(|| tail.strip_prefix('-'))
        .or_else(|| tail.strip_prefix(':'))
        .map(str::trim)
        .unwrap_or("")
        .to_string();
    Some(Ok(Pragma { rules, reason, trailing: has_code }))
}

// ---------------------------------------------------------------------------
// Token matching.
// ---------------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// True when `token` occurs in `line` at identifier boundaries. Tokens may
/// contain `::` path segments; boundaries are checked at both ends (a
/// preceding `::` is a boundary — `std::collections::` prefixes must still
/// match the bare type token).
fn has_token(line: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let before_ok =
            start == 0 || !is_ident_char(line[..start].chars().next_back().unwrap_or(' '));
        let after_ok = !line[end..].starts_with(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// True when `name` occurs in `line` as a macro invocation: at an
/// identifier boundary on the left, immediately followed by `!`.
fn has_macro(line: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let before_ok =
            start == 0 || !is_ident_char(line[..start].chars().next_back().unwrap_or(' '));
        if before_ok && line[end..].starts_with('!') {
            return true;
        }
        from = end;
    }
    false
}

/// D1 tokens: the std hash collections (every path form mentions the bare
/// type name, so matching the type identifier covers imports, annotations,
/// turbofish, and constructor calls alike).
const D1_TOKENS: [&str; 2] = ["HashMap", "HashSet"];

/// D2 tokens: wall-clock reads and their imports.
const D2_TOKENS: [&str; 4] =
    ["Instant::now", "SystemTime::now", "std::time::Instant", "std::time::SystemTime"];

/// D3 tokens: ambient RNG sources (entropy-seeded or process-shared — the
/// draws that are *not* pure functions of a config seed).
const D3_TOKENS: [&str; 3] = ["thread_rng", "from_entropy", "rand::random"];

/// D5 tokens: direct stdout/stderr prints. Only the bang forms are
/// watched — `writeln!` into a `String` is the sanctioned idiom.
const D5_TOKENS: [&str; 3] = ["println", "eprintln", "dbg"];

/// True when D5 (no library prints) applies to `path`: anything *not*
/// reachable from a binary/test/example/bench entry point. The check is
/// purely lexical over the path the scanner was handed — `bin`, `tests`,
/// `examples`, and `benches` components mark allowlisted trees, and
/// `main.rs`/`build.rs` are entry points wherever they live.
pub fn d5_applies(path: &Path) -> bool {
    let exempt_component = path
        .components()
        .any(|c| matches!(c.as_os_str().to_str(), Some("bin" | "tests" | "examples" | "benches")));
    let exempt_file =
        matches!(path.file_name().and_then(|n| n.to_str()), Some("main.rs" | "build.rs"));
    !exempt_component && !exempt_file
}

/// D6 types: query-path routing state that consumers borrow or hold by
/// interned index — a `.clone()` of a binding of one of these types in
/// library code is a per-query allocation regression. (`NetModelKind` is
/// `Copy`, so only the full `NetModel` — with its latency tables — is
/// watched.)
const D6_TYPES: [&str; 3] = ["FaultPlan", "NetModel", "KautzRegion"];

/// True when D6 (no routing-state clones) applies to `path`: the same
/// library-only allowlist as [`d5_applies`] — binaries, tests, examples,
/// and benches set up owned fixtures and may clone freely.
pub fn d6_applies(path: &Path) -> bool {
    d5_applies(path)
}

/// Unordered-iteration method calls D4 watches on hash-bound names.
const D4_METHODS: [&str; 9] = [
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
];

/// How many lines below an unordered iteration a `sort` still counts as
/// "intervening" (covers the collect-into-vec-then-sort idiom).
const D4_SORT_WINDOW: usize = 4;

/// Extracts the names bound to any of `types` in this file: `let`
/// bindings and struct-field / parameter declarations whose line names
/// one of the watched types. Shared by D4 (hash collections) and D6
/// (routing state).
fn bound_names(lines: &[SplitLine], types: &[&str]) -> Vec<String> {
    let mut names = Vec::new();
    for l in lines {
        let code = &l.code;
        if !types.iter().any(|t| has_token(code, t)) {
            continue;
        }
        // `let [mut] name[: T] = …` — the binding introduced on this line.
        if let Some(pos) = code.find("let ") {
            let rest = code[pos + 4..].trim_start().trim_start_matches("mut ").trim_start();
            let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
            if !name.is_empty() && !names.contains(&name) {
                names.push(name);
            }
            continue;
        }
        // `name: …Hash…<…>` — a struct field (or fn param) declaration.
        if let Some(colon) = code.find(':') {
            let rev: String =
                code[..colon].chars().rev().take_while(|&c| is_ident_char(c)).collect();
            let name: String = rev.chars().rev().collect();
            if !name.is_empty()
                && !name.starts_with(|c: char| c.is_ascii_digit())
                && !names.contains(&name)
            {
                names.push(name);
            }
        }
    }
    names
}

/// The watched call `line` makes on `name` (or `self.name`), if any: an
/// unordered-iteration method, or a `for … in` over it.
fn iterates_unordered(line: &str, name: &str) -> Option<String> {
    for recv in [format!("self.{name}"), name.to_string()] {
        for m in D4_METHODS {
            let call = format!("{recv}{m}");
            if line.contains(&call) {
                return Some(call);
            }
        }
        if let Some(pos) = find_for_in(line) {
            let target = line[pos..].trim_start();
            let target = target.strip_prefix('&').unwrap_or(target);
            let target = target.strip_prefix("mut ").unwrap_or(target).trim_start();
            if target.starts_with(&recv)
                && !target[recv.len()..].starts_with(is_ident_char)
                && !target[recv.len()..].starts_with('.')
            {
                return Some(format!("for … in {recv}"));
            }
        }
    }
    None
}

/// Position just after the ` in ` of a `for … in …` header, if present.
fn find_for_in(line: &str) -> Option<usize> {
    let for_at = line.find("for ")?;
    let in_at = line[for_at..].find(" in ")?;
    Some(for_at + in_at + 4)
}

// ---------------------------------------------------------------------------
// Scanning.
// ---------------------------------------------------------------------------

/// Scans one source text. `path` labels the findings; no I/O happens here.
pub fn scan_source(path: &Path, text: &str) -> (Vec<Finding>, Vec<Allowance>) {
    let lines = split_lines(text);
    let raw_lines: Vec<&str> = text.lines().collect();
    let snippet = |idx: usize| raw_lines.get(idx).map_or(String::new(), |s| s.trim().to_string());

    // Pass 1: pragmas. `covers[i]` holds the (rule, reason) pairs that
    // suppress findings on line i (0-based).
    let mut covers: Vec<Vec<(Rule, String)>> = vec![Vec::new(); lines.len()];
    let mut findings = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let has_code = !l.code.trim().is_empty();
        match parse_pragma(&l.comment, has_code) {
            None => {}
            Some(Err(token)) => findings.push(Finding {
                file: path.to_path_buf(),
                line: i + 1,
                rule: Rule::BadPragma,
                token,
                snippet: snippet(i),
            }),
            Some(Ok(p)) => {
                if p.reason.is_empty() {
                    // A reasonless pragma suppresses nothing and is itself
                    // reported — an unexplained exception is no audit.
                    findings.push(Finding {
                        file: path.to_path_buf(),
                        line: i + 1,
                        rule: Rule::BadPragma,
                        token: "allow without reason".to_string(),
                        snippet: snippet(i),
                    });
                    continue;
                }
                let target = if p.trailing {
                    Some(i)
                } else {
                    // Standalone pragma: covers the next line with code.
                    (i + 1..lines.len()).find(|&j| !lines[j].code.trim().is_empty())
                };
                if let Some(t) = target {
                    for r in &p.rules {
                        covers[t].push((*r, p.reason.clone()));
                    }
                }
            }
        }
    }

    // Pass 2: rule tokens on the stripped code.
    let bound = bound_names(&lines, &D1_TOKENS);
    let routing_bound = if d6_applies(path) { bound_names(&lines, &D6_TYPES) } else { Vec::new() };
    let mut allowed = Vec::new();
    let mut emit = |line_idx: usize, rule: Rule, token: String, findings: &mut Vec<Finding>| {
        if let Some((_, reason)) = covers[line_idx].iter().find(|(r, _)| *r == rule) {
            allowed.push(Allowance {
                file: path.to_path_buf(),
                line: line_idx + 1,
                rule,
                reason: reason.clone(),
            });
        } else {
            findings.push(Finding {
                file: path.to_path_buf(),
                line: line_idx + 1,
                rule,
                token,
                snippet: snippet(line_idx),
            });
        }
    };

    for (i, l) in lines.iter().enumerate() {
        let code = &l.code;
        for t in D1_TOKENS {
            if has_token(code, t) {
                emit(i, Rule::D1, t.to_string(), &mut findings);
            }
        }
        for t in D2_TOKENS {
            if has_token(code, t) {
                // One finding per line: the path tokens overlap (a
                // `std::time::Instant::now()` call matches two of them).
                emit(i, Rule::D2, t.to_string(), &mut findings);
                break;
            }
        }
        for t in D3_TOKENS {
            if has_token(code, t) {
                emit(i, Rule::D3, t.to_string(), &mut findings);
            }
        }
        if d5_applies(path) {
            for t in D5_TOKENS {
                // The macro invocation, not the bare name: `println` as an
                // identifier (a local, a field) is not a print.
                if has_macro(code, t) {
                    emit(i, Rule::D5, format!("{t}!"), &mut findings);
                }
            }
        }
        for name in &bound {
            if let Some(call) = iterates_unordered(code, name) {
                // An intervening sort within the window discharges D4: the
                // unordered stream was canonicalized before flowing on.
                let sorted_after = (i..lines.len().min(i + 1 + D4_SORT_WINDOW))
                    .any(|j| lines[j].code.contains("sort"));
                if !sorted_after {
                    emit(i, Rule::D4, call, &mut findings);
                }
                break; // one D4 finding per line
            }
        }
        for name in &routing_bound {
            // `plan.clone()` / `p.plan.clone()` / `self.plan.clone()` — the
            // boundary check rejects longer identifiers (`replan.clone()`)
            // while any field access prefix still matches.
            let call = format!("{name}.clone()");
            if has_token(code, &call) {
                emit(i, Rule::D6, call, &mut findings);
                break; // one D6 finding per line
            }
        }
    }

    findings.sort_by_key(|a| (a.line, a.rule));
    (findings, allowed)
}

/// Scans every `.rs` file under `root` (recursively), excluding `target/`
/// directories. Use this for fixture or single-crate runs.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn scan_dir(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(root, &mut files, &|_| true)?;
    scan_files(root, files)
}

/// Scans the workspace tree rooted at `root`: `crates/`, `src/`, `tests/`,
/// and `examples/`, excluding `shims/` (offline stand-ins for external
/// crates, not simulation code) and the linter's own seeded-violation
/// fixtures.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        let d = root.join(dir);
        if d.is_dir() {
            collect_rs(&d, &mut files, &|p| !p.components().any(|c| c.as_os_str() == "fixtures"))?;
        }
    }
    scan_files(root, files)
}

fn scan_files(root: &Path, mut files: Vec<PathBuf>) -> std::io::Result<Report> {
    files.sort();
    let mut report = Report::default();
    for f in &files {
        let text = std::fs::read_to_string(f)?;
        let label = f.strip_prefix(root).unwrap_or(f);
        let (findings, allowed) = scan_source(label, &text);
        report.findings.extend(findings);
        report.allowed.extend(allowed);
        report.files_scanned += 1;
    }
    Ok(report)
}

fn collect_rs(
    dir: &Path,
    out: &mut Vec<PathBuf>,
    keep: &dyn Fn(&Path) -> bool,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && keep(&path) {
                collect_rs(&path, out, keep)?;
            }
        } else if name.ends_with(".rs") && keep(&path) {
            out.push(path);
        }
    }
    Ok(())
}

/// The workspace root as seen from this crate (`crates/detlint` → `../..`).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> (Vec<Finding>, Vec<Allowance>) {
        scan_source(Path::new("test.rs"), text)
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let text = r##"
// a HashMap here made crashed_nodes() run-dependent
/* block comment: HashSet, Instant::now, thread_rng */
let s = "HashMap in a string";
let r = r#"HashSet raw "quoted" string"#;
let t = 'x';
"##;
        let (findings, _) = scan(text);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn nested_block_comments_and_lifetimes_survive() {
        let text = "/* outer /* inner HashMap */ still comment HashSet */\n\
                    fn f<'a>(x: &'a u32) -> &'a u32 { x }\n";
        let (findings, _) = scan(text);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn d1_fires_on_import_annotation_and_constructor() {
        let text = "use std::collections::HashMap;\n\
                    let x: HashSet<u32> = Default::default();\n\
                    let y = std::collections::HashMap::<u8, u8>::new();\n";
        let (findings, _) = scan(text);
        let d1: Vec<_> = findings.iter().filter(|f| f.rule == Rule::D1).collect();
        assert_eq!(d1.len(), 3, "{findings:?}");
        assert_eq!(d1[0].line, 1);
        assert_eq!(d1[1].line, 2);
        assert_eq!(d1[2].line, 3);
    }

    #[test]
    fn d1_does_not_fire_on_lookalike_identifiers() {
        let text = "struct MyHashMapLike;\nlet no_hash_set_here = 1;\n";
        let (findings, _) = scan(text);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn d2_fires_once_per_line() {
        let text = "use std::time::Instant;\nlet t = Instant::now();\n\
                    let s = std::time::SystemTime::now();\n";
        let (findings, _) = scan(text);
        let d2: Vec<_> = findings.iter().filter(|f| f.rule == Rule::D2).collect();
        assert_eq!(d2.len(), 3, "{findings:?}");
    }

    #[test]
    fn d3_fires_on_ambient_rng() {
        let text = "let mut rng = thread_rng();\nlet x: u64 = rand::random();\n\
                    let r = SmallRng::from_entropy();\n";
        let (findings, _) = scan(text);
        assert_eq!(findings.iter().filter(|f| f.rule == Rule::D3).count(), 3, "{findings:?}");
    }

    #[test]
    fn d4_flags_unordered_iteration_on_hash_bound_names() {
        let text = "let mut groups: std::collections::HashMap<u64, u32> = Default::default();\n\
                    for v in groups.values() {\n\
                    }\n";
        let (findings, _) = scan(text);
        let d4: Vec<_> = findings.iter().filter(|f| f.rule == Rule::D4).collect();
        assert_eq!(d4.len(), 1, "{findings:?}");
        assert_eq!(d4[0].line, 2);
        assert!(d4[0].token.contains("values"));
    }

    #[test]
    fn d4_credits_an_intervening_sort() {
        let text = "let mut groups: std::collections::HashMap<u64, u32> = Default::default();\n\
                    let mut out: Vec<_> = groups.keys().collect();\n\
                    out.sort_unstable();\n";
        let (findings, _) = scan(text);
        assert!(findings.iter().all(|f| f.rule != Rule::D4), "{findings:?}");
    }

    #[test]
    fn d4_tracks_struct_fields_through_self() {
        let text = "struct S {\n    index: std::collections::HashMap<u64, u32>,\n}\n\
                    impl S {\n    fn f(&self) -> usize {\n        \
                    self.index.values().map(|v| *v as usize).max().unwrap_or(0)\n    }\n}\n";
        let (findings, _) = scan(text);
        let d4: Vec<_> = findings.iter().filter(|f| f.rule == Rule::D4).collect();
        assert_eq!(d4.len(), 1, "{findings:?}");
        assert!(d4[0].token.starts_with("self.index"));
    }

    #[test]
    fn d5_fires_in_library_paths_and_not_in_entry_point_paths() {
        let text = "fn f() {\n    println!(\"x\");\n    eprintln!(\"y\");\n    dbg!(1);\n}\n";
        let (findings, _) = scan_source(Path::new("crates/foo/src/lib.rs"), text);
        assert_eq!(findings.iter().filter(|f| f.rule == Rule::D5).count(), 3, "{findings:?}");
        // Entry points and test/example trees are allowlisted by path.
        for exempt in [
            "crates/foo/src/bin/tool.rs",
            "crates/foo/src/main.rs",
            "crates/foo/tests/integration.rs",
            "examples/quickstart.rs",
            "crates/foo/benches/bench.rs",
            "build.rs",
        ] {
            let (findings, _) = scan_source(Path::new(exempt), text);
            assert!(findings.is_empty(), "{exempt}: {findings:?}");
        }
    }

    #[test]
    fn d5_matches_the_macro_not_the_identifier() {
        let text = "let println = 3;\nlet x = a != b;\nwriteln!(s, \"ok\").unwrap();\n\
                    my_println!(\"custom macro\");\n";
        let (findings, _) = scan_source(Path::new("crates/foo/src/lib.rs"), text);
        assert!(findings.iter().all(|f| f.rule != Rule::D5), "{findings:?}");
    }

    #[test]
    fn trailing_and_standalone_pragmas_cover_their_lines() {
        let text = "use std::collections::HashMap; // detlint: allow(D1) — audited: keys \
                    sorted on read\n\
                    // detlint: allow(D1) — audited: value type only\n\
                    fn f(m: &HashMap<u8, u8>) {}\n";
        let (findings, allowed) = scan(text);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(allowed.len(), 2);
        assert!(allowed[0].reason.contains("keys sorted"));
    }

    #[test]
    fn reasonless_or_malformed_pragmas_are_reported_and_do_not_suppress() {
        let text = "use std::collections::HashSet; // detlint: allow(D1)\n\
                    // detlint: allow(D9) — no such rule\n";
        let (findings, allowed) = scan(text);
        assert!(allowed.is_empty());
        assert_eq!(findings.iter().filter(|f| f.rule == Rule::BadPragma).count(), 2);
        // The reasonless pragma left the D1 finding standing.
        assert_eq!(findings.iter().filter(|f| f.rule == Rule::D1).count(), 1);
    }

    #[test]
    fn pragma_only_covers_its_named_rule() {
        let text = "// detlint: allow(D2) — wrong rule named\n\
                    use std::collections::HashMap;\n";
        let (findings, _) = scan(text);
        assert_eq!(findings.iter().filter(|f| f.rule == Rule::D1).count(), 1, "{findings:?}");
    }

    #[test]
    fn prose_mentioning_the_grammar_is_not_a_pragma() {
        // A doc comment *about* pragmas must neither suppress nor trip the
        // hygiene rule — only a comment that starts with the marker parses.
        let text = "/// Suppress with a trailing comment per the detlint: allow grammar.\n\
                    fn documented() {}\n";
        let (findings, allowed) = scan(text);
        assert!(findings.is_empty(), "{findings:?}");
        assert!(allowed.is_empty());
    }

    #[test]
    fn fixture_violations_all_fire() {
        let report = scan_dir(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures"))
            .expect("fixtures scan");
        // Every rule of the contract fires at least once in the fixture —
        // the linter is itself tested before it is trusted as a CI gate.
        for rule in RULES {
            assert!(
                !report.findings_for(rule).is_empty(),
                "rule {rule} found nothing in the fixtures"
            );
        }
        assert!(!report.is_clean());
        // The audited (pragma'd) seeds landed in the allowance list, one
        // per rule, instead of failing the scan.
        for rule in RULES {
            assert!(
                report.allowed.iter().any(|a| a.rule == rule),
                "rule {rule} has no audited exception in the fixtures"
            );
        }
        // And the clean fixture contributes nothing.
        assert!(
            !report.findings.iter().any(|f| f.file.ends_with("clean.rs")),
            "clean.rs must stay clean: {:?}",
            report.findings
        );
    }

    #[test]
    fn fixture_expected_counts_are_exact() {
        let report = scan_dir(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures"))
            .expect("fixtures scan");
        let seeded = |rule: Rule| report.findings_for(rule).len();
        // Kept in lockstep with fixtures/seeded_violations.rs.
        assert_eq!(seeded(Rule::D1), 3, "{:?}", report.findings_for(Rule::D1));
        assert_eq!(seeded(Rule::D2), 3, "{:?}", report.findings_for(Rule::D2));
        assert_eq!(seeded(Rule::D3), 3, "{:?}", report.findings_for(Rule::D3));
        assert_eq!(seeded(Rule::D4), 3, "{:?}", report.findings_for(Rule::D4));
        assert_eq!(seeded(Rule::D5), 3, "{:?}", report.findings_for(Rule::D5));
        assert_eq!(seeded(Rule::D6), 3, "{:?}", report.findings_for(Rule::D6));
        assert_eq!(seeded(Rule::BadPragma), 2, "{:?}", report.findings_for(Rule::BadPragma));
        assert_eq!(report.allowed.len(), 6, "{:?}", report.allowed);
    }

    #[test]
    fn workspace_tree_is_clean() {
        // The CI gate, enforced from the test suite too: the real tree has
        // no unannotated violation of the determinism contract.
        let report = scan_workspace(&workspace_root()).expect("workspace scan");
        assert!(report.files_scanned > 50, "scanned only {} files", report.files_scanned);
        assert!(report.is_clean(), "determinism contract violations:\n{}", report.to_text());
        // And no audited exception either: a pragma added anywhere in the
        // tree — a wall-clock read, a hash map, a library print — is a
        // visible diff to this test, not a quiet line in a report.
        assert!(
            report.allowed.is_empty(),
            "the workspace carries allowances: {:?}",
            report.allowed
        );
    }

    #[test]
    fn json_report_is_balanced_and_names_rules() {
        let (findings, allowed) = scan("use std::collections::HashMap;\nlet t = Instant::now();\n");
        let report = Report { findings, allowed, files_scanned: 1 };
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"rule\": \"D1\""));
        assert!(json.contains("\"rule\": \"D2\""));
        assert!(json.contains("\"clean\": false"));
    }
}

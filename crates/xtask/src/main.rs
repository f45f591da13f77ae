//! In-tree repo lints, run as `cargo xtask lint` (aliased in
//! `.cargo/config.toml`) and as a standalone CI job.
//!
//! Six rules, each with an explicit, justified allowlist rather than a
//! blanket escape hatch:
//!
//! 1. **Hot-path unwrap discipline.** `.unwrap()` / `.expect(` are
//!    forbidden in the non-test code of `crates/executor/src/ops/` — a
//!    panic there takes down a worker thread mid-query and surfaces as a
//!    poisoned exchange instead of a typed `ExecError`. The allowlist
//!    pins *exact* per-file counts: adding a new unwrap fails the lint,
//!    and removing one without updating the allowlist also fails, so the
//!    list can never rot into an over-approximation.
//! 2. **Sleep-free tests.** A thread sleep in test code is a flaky-test
//!    factory (sleep-based synchronization); the exchange tests prove
//!    teardown with the model checker instead. The only allowed uses are
//!    clock-advance assertions in the cycle-counter tests.
//! 3. **Operator stats registration.** Every data-processing operator in
//!    `crates/executor/src/ops/` must run its work through registered
//!    primitive instances (`PrimInstance` / `CompiledExpr` /
//!    `CompiledPred`) so micro-adaptivity statistics cover it. Pure
//!    data-movement operators (exchanges, scans, sort/materialize) are
//!    exempt and listed as such.
//! 4. **Numeric-width and row-arithmetic discipline.** In the kernel
//!    crates (`crates/primitives`, `crates/executor/src/ops`), narrowing
//!    `as` casts and bare `+`/`*` on row-count/offset lines are pinned by
//!    exact per-file counts — the abstract interpreter
//!    (`ma_executor::analyze`) vouches for expression safety, so width
//!    truncations and offset wraps below it must be individually
//!    provable.
//! 5. **Memory-facade registration.** Every operator in
//!    `crates/executor/src/ops/` that can hold data across chunks must
//!    report its resident bytes through the `MemTracker` facade so the
//!    byte-accounting oracle (`ma_executor::cost`) can check recorded
//!    high-water marks against the proven static bounds. Streaming
//!    operators with no cross-chunk state are exempt and listed as such;
//!    stale exemptions are flagged just like rule 3.
//! 6. **Decode-flavor registration.** Every decode kernel flavor in
//!    `crates/primitives/src/decode.rs` must be registered in the
//!    `PrimitiveDictionary` (`registry.rs`) under its signature, and each
//!    decode signature is pinned to an exact flavor count (≥ 3, so the
//!    per-morsel bandit always has real arms to choose between). A kernel
//!    added without registration, a registration without a kernel, and a
//!    stale allowlist count all fail.
//!
//! No dependencies: a plain recursive walker over the repo's own sources
//! keeps the lint runnable in offline builds and fast enough for CI.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Rule 1 allowlist: exact count of `.unwrap()`/`.expect(` occurrences in
/// the non-test region of each ops file, with the justification that
/// earned the entry. Everything not listed must have zero.
const UNWRAP_ALLOWLIST: &[(&str, usize, &str)] = &[
    (
        "aggregate.rs",
        2,
        "checked i128->i64 sum narrowing (overflow must panic, not wrap) and \
         the drain-once state machine (done Option)",
    ),
    (
        "exchange.rs",
        1,
        "merge-heap head invariant: a source in the heap always has a buffered head",
    ),
    (
        "hash_join.rs",
        4,
        "publish-once build table (read only after its build ran) and key-index \
         back-maps established at construction",
    ),
    (
        "merge_join.rs",
        2,
        "materialize-once state machine (left/payload Options)",
    ),
    ("sort.rs", 2, "run-once state machine (child/out Options)"),
];

/// Rule 2 allowlist: files whose test code may sleep a thread, with
/// exact counts. Only clock-advance assertions qualify — a test proving a
/// tick counter moves across a real wait is *measuring* the sleep, not
/// synchronizing on it.
const SLEEP_ALLOWLIST: &[(&str, usize, &str)] = &[(
    "crates/core/src/cycles.rs",
    2,
    "clock-advance assertions: the test measures that ticks advance across \
     a real wait",
)];

/// Rule 3 exemptions: ops files implementing `Operator` that legitimately
/// run no data-processing primitives.
const STATS_EXEMPT: &[(&str, &str)] = &[
    (
        "exchange.rs",
        "pure data movement: exchanges route chunks between threads and touch \
         no tuple values",
    ),
    (
        "sort.rs",
        "materialization: sorts a frozen row store with direct comparisons, \
         no per-vector primitive work",
    ),
];

/// Rule 4a allowlist: exact count of narrowing `as` casts (`as i8/u8/
/// i16/u16/i32/u32`) in the non-test region of each kernel/ops file,
/// keyed by workspace-relative path. A narrowing cast silently truncates;
/// every survivor must be provably in-range at the cast site.
const NARROW_CAST_ALLOWLIST: &[(&str, usize, &str)] = &[
    (
        "crates/primitives/src/decode.rs",
        10,
        "bit-shift amounts masked to < 64 (u32 by construction), delta \
         running sums that re-materialize i32 values the codec packed, and \
         dictionary codes bounded by DICT_MAX_VALUES = 2^16",
    ),
    (
        "crates/primitives/src/selection.rs",
        24,
        "selection-vector writes: positions are < vector_size (max 2^16) by \
         the DataChunk contract, so usize -> u32 row ids cannot truncate",
    ),
    (
        "crates/primitives/src/bloom.rs",
        5,
        "u32 selection-vector writes plus bool -> u8 hit flags (0/1 by \
         definition)",
    ),
    (
        "crates/primitives/src/group_table.rs",
        3,
        "arena offsets/lengths stored as (u32, u32) views — the arena is \
         bounded far below 4 GiB by the vector-at-a-time memory model",
    ),
    (
        "crates/primitives/src/like.rs",
        2,
        "u32 selection-vector writes, positions < vector_size",
    ),
    (
        "crates/primitives/src/merge.rs",
        4,
        "u32 row-id emission over per-vector key slices (< vector_size rows)",
    ),
    (
        "crates/executor/src/ops/aggregate.rs",
        1,
        "key-row write cursor: each piece's length is part of a row size that \
         was summed into a u32 with overflow detection before any write",
    ),
    (
        "crates/executor/src/ops/exchange.rs",
        2,
        "u32 row routing: positions come from live_positions(), bounded by \
         the vector size",
    ),
    (
        "crates/executor/src/ops/hash_join.rs",
        3,
        "u32 build-row chain links and probe ranges, bounded by the \
         materialized build size (row stores index with u32 by design)",
    ),
    (
        "crates/executor/src/ops/mod.rs",
        4,
        "row-store (offset, len) string views and u32 chunk row ranges, both \
         bounded by the store's u32 row-id design width",
    ),
    (
        "crates/executor/src/ops/sort.rs",
        2,
        "u32 sort-index construction over a frozen store (u32 row-id width)",
    ),
];

/// Rule 5 exemptions: ops files implementing `Operator` that legitimately
/// hold no cross-chunk state worth metering — nothing resident beyond the
/// single chunk in flight, which the exchanges above them already meter.
const MEM_EXEMPT: &[(&str, &str)] = &[
    (
        "merge_join.rs",
        "materializes only the sorted left side, whose exact len-based size \
         the cost pass proves directly from input cardinality; the operator \
         is serial-only, so no partitioned instance can drift from the bound",
    ),
    (
        "project.rs",
        "streaming: transforms the chunk in flight, retains nothing across \
         next() calls",
    ),
    (
        "scan.rs",
        "streaming: emits borrowed views of stored vectors, allocates no \
         resident state",
    ),
    (
        "select.rs",
        "streaming: filters the chunk in flight via selection vectors, \
         retains nothing across next() calls",
    ),
];

/// Rule 4b allowlist: exact count of bare `+`/`*` on lines manipulating
/// row counts or offsets in kernel/ops non-test code. Row math must use
/// `saturating_*`/`checked_*` (or prove the bound locally): a silent wrap
/// in an offset computation is an out-of-bounds gather waiting to happen.
const ROW_ARITH_ALLOWLIST: &[(&str, usize, &str)] = &[];

/// Rule 6 allowlist: exact flavor count per decode signature. Every
/// signature needs ≥ 3 flavors so the bandit has real arms; the exact
/// pin means adding a flavor without updating the list (or retiring one
/// and leaving the count) fails.
const DECODE_FLAVOR_ALLOWLIST: &[(&str, usize, &str)] = &[
    (
        "decode_for_i32",
        3,
        "branching/no_branching/unroll8 over frame-of-reference i32 columns",
    ),
    (
        "decode_for_i64",
        3,
        "branching/no_branching/unroll8 over frame-of-reference i64 columns",
    ),
    (
        "decode_delta_i32",
        3,
        "branching/no_branching/unroll8 over delta + bit-packed key columns",
    ),
    (
        "decode_dict_str",
        3,
        "fused/fission/unroll8 over dictionary-coded string columns",
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        _ => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut violations = Vec::new();
    lint_ops_unwraps(&root, &mut violations);
    lint_test_sleeps(&root, &mut violations);
    lint_operator_stats(&root, &mut violations);
    lint_narrowing_and_row_arith(&root, &mut violations);
    lint_mem_facade(&root, &mut violations);
    lint_decode_flavors(&root, &mut violations);
    if violations.is_empty() {
        println!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask lint: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

/// The workspace root: `cargo run -p xtask` sets the cwd to the xtask
/// crate? No — cargo runs binaries from the *workspace* cwd the user
/// invoked, so resolve relative to this file's known location instead:
/// CARGO_MANIFEST_DIR is `<root>/crates/xtask` at compile time.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask has a workspace root two levels up")
        .to_path_buf()
}

/// The non-test prefix of a source file: everything before the first
/// line starting a `#[cfg(test)]` item (the repo convention keeps test
/// modules trailing).
fn non_test_region(src: &str) -> &str {
    match src.find("#[cfg(test)]") {
        Some(pos) => &src[..pos],
        None => src,
    }
}

fn count_matches(haystack: &str, needles: &[&str]) -> usize {
    needles.iter().map(|n| haystack.matches(n).count()).sum()
}

/// Rule 1: unwrap/expect discipline in executor ops hot paths.
fn lint_ops_unwraps(root: &Path, violations: &mut Vec<String>) {
    let ops_dir = root.join("crates/executor/src/ops");
    for file in rust_files(&ops_dir) {
        let name = file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = match fs::read_to_string(&file) {
            Ok(s) => s,
            Err(e) => {
                violations.push(format!("{}: unreadable: {e}", file.display()));
                continue;
            }
        };
        let count = count_matches(non_test_region(&src), &[".unwrap()", ".expect("]);
        let allowed = UNWRAP_ALLOWLIST
            .iter()
            .find(|(f, _, _)| *f == name)
            .map(|(_, n, _)| *n)
            .unwrap_or(0);
        if count > allowed {
            let mut msg = String::new();
            let _ = write!(
                msg,
                "{}: {count} unwrap()/expect() in non-test code, allowlist permits \
                 {allowed}; return a typed ExecError (a panic here kills a worker \
                 thread mid-query) or extend UNWRAP_ALLOWLIST with a justification",
                file.display()
            );
            violations.push(msg);
        } else if count < allowed {
            violations.push(format!(
                "{}: {count} unwrap()/expect() but the allowlist still records \
                 {allowed}; shrink its UNWRAP_ALLOWLIST entry so the list stays exact",
                file.display()
            ));
        }
    }
}

/// Rule 2: no thread sleeps anywhere in crate sources (test or not)
/// outside the justified allowlist.
fn lint_test_sleeps(root: &Path, violations: &mut Vec<String>) {
    // Built by concatenation so this file does not match itself.
    let needle = concat!("thread::", "sleep");
    for file in rust_files(&root.join("crates")) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = match fs::read_to_string(&file) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let count = src.matches(needle).count();
        if count == 0 {
            continue;
        }
        let allowed = SLEEP_ALLOWLIST
            .iter()
            .find(|(f, _, _)| *f == rel)
            .map(|(_, n, _)| *n)
            .unwrap_or(0);
        if count != allowed {
            violations.push(format!(
                "{rel}: {count} {needle} call(s), allowlist permits {allowed}; \
                 sleep-based test synchronization flakes — drive the schedule \
                 explicitly (see the exchange model checker) or justify an \
                 allowlist entry"
            ));
        }
    }
}

/// Rule 3: ops files implementing `Operator` must run registered
/// primitive instances unless exempt as pure data movement.
fn lint_operator_stats(root: &Path, violations: &mut Vec<String>) {
    let ops_dir = root.join("crates/executor/src/ops");
    for file in rust_files(&ops_dir) {
        let name = file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = match fs::read_to_string(&file) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let body = non_test_region(&src);
        if !body.contains("impl Operator for") {
            continue;
        }
        let registered = ["PrimInstance", "CompiledExpr", "CompiledPred"]
            .iter()
            .any(|m| body.contains(m));
        let exempt = STATS_EXEMPT.iter().any(|(f, _)| *f == name);
        if !registered && !exempt {
            violations.push(format!(
                "{}: implements Operator without any registered primitive \
                 instance (PrimInstance/CompiledExpr/CompiledPred); \
                 micro-adaptivity statistics would not cover it — register its \
                 work or add a STATS_EXEMPT entry with a justification",
                file.display()
            ));
        } else if registered && exempt {
            violations.push(format!(
                "{}: listed in STATS_EXEMPT but now registers primitive \
                 instances; drop the stale exemption",
                file.display()
            ));
        }
    }
}

/// Rule 5: ops files implementing `Operator` must meter resident bytes
/// through the `MemTracker` facade unless exempt as streaming/covered.
/// Without registration the byte-accounting oracle silently skips the
/// operator, and "actual ≤ proven bound" degrades to vacuous truth.
fn lint_mem_facade(root: &Path, violations: &mut Vec<String>) {
    let ops_dir = root.join("crates/executor/src/ops");
    for file in rust_files(&ops_dir) {
        let name = file
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let src = match fs::read_to_string(&file) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let body = non_test_region(&src);
        if !body.contains("impl Operator for") {
            continue;
        }
        let registered = body.contains("MemTracker");
        let exempt = MEM_EXEMPT.iter().any(|(f, _)| *f == name);
        if !registered && !exempt {
            violations.push(format!(
                "{}: implements Operator without registering with the \
                 MemTracker facade; the byte-accounting oracle cannot check \
                 its resident bytes against the proven bound — wire a tracker \
                 or add a MEM_EXEMPT entry with a justification",
                file.display()
            ));
        } else if registered && exempt {
            violations.push(format!(
                "{}: listed in MEM_EXEMPT but now registers with the \
                 MemTracker facade; drop the stale exemption",
                file.display()
            ));
        }
    }
}

/// Rule 4: numeric-width and row-arithmetic discipline in the kernel
/// crates (`crates/primitives`, `crates/executor/src/ops`) — the code
/// the abstract interpreter's safety verdicts ultimately vouch for.
/// Two sub-rules over non-test, non-comment lines:
///
/// * **4a** — narrowing `as` casts truncate silently; each one must be
///   provably in-range and is pinned by exact count.
/// * **4b** — bare `+`/`*` on lines handling row counts or offsets must
///   instead use `saturating_*`/`checked_*` (wrap in an offset is an
///   out-of-bounds gather); in-range survivors are pinned by exact count.
fn lint_narrowing_and_row_arith(root: &Path, violations: &mut Vec<String>) {
    const NARROWING: &[&str] = &["as i8", "as u8", "as i16", "as u16", "as i32", "as u32"];
    for dir in ["crates/primitives/src", "crates/executor/src/ops"] {
        for file in rust_files(&root.join(dir)) {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let src = match fs::read_to_string(&file) {
                Ok(s) => s,
                Err(e) => {
                    violations.push(format!("{rel}: unreadable: {e}"));
                    continue;
                }
            };
            let code_lines: Vec<&str> = non_test_region(&src)
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .collect();
            let casts: usize = code_lines.iter().map(|l| count_matches(l, NARROWING)).sum();
            check_exact(
                &rel,
                "narrowing `as` cast(s)",
                casts,
                NARROW_CAST_ALLOWLIST,
                "casts truncate silently — widen, use try_from, or justify an \
                 exact NARROW_CAST_ALLOWLIST entry",
                violations,
            );
            let row_arith = code_lines
                .iter()
                .filter(|l| {
                    (l.contains("rows") || l.contains("offset"))
                        && (l.contains(" + ") || l.contains(" * "))
                        && !l.contains("saturating_")
                        && !l.contains("checked_")
                })
                .count();
            check_exact(
                &rel,
                "bare +/* on row/offset line(s)",
                row_arith,
                ROW_ARITH_ALLOWLIST,
                "row/offset arithmetic must be saturating_/checked_ or earn an \
                 exact ROW_ARITH_ALLOWLIST entry proving the bound",
                violations,
            );
        }
    }
}

/// Rule 6: decode-flavor registration. Cross-checks the decode kernels
/// in `crates/primitives/src/decode.rs` against the dictionary
/// registrations in `crates/primitives/src/registry.rs`:
///
/// * every signature in `DECODE_FLAVOR_ALLOWLIST` must appear as a
///   registered signature string in the registry,
/// * the kernel file must define exactly the pinned number of flavor
///   functions per signature (named `<signature>_<flavor>`), each of
///   which must also appear in the registry's registration code, and
/// * any `decode_*` identifier in the kernel file that extends no known
///   signature (a new kernel family) fails until the allowlist names it.
fn lint_decode_flavors(root: &Path, violations: &mut Vec<String>) {
    let decode_src = match fs::read_to_string(root.join("crates/primitives/src/decode.rs")) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!("crates/primitives/src/decode.rs: unreadable: {e}"));
            return;
        }
    };
    let registry_src = match fs::read_to_string(root.join("crates/primitives/src/registry.rs")) {
        Ok(s) => s,
        Err(e) => {
            violations.push(format!(
                "crates/primitives/src/registry.rs: unreadable: {e}"
            ));
            return;
        }
    };
    let kernels = identifiers_with_prefix(non_test_region(&decode_src), "decode_");
    let registry = non_test_region(&registry_src);
    for (sig, pinned, _) in DECODE_FLAVOR_ALLOWLIST {
        if !registry.contains(&format!("\"{sig}\"")) {
            violations.push(format!(
                "registry.rs: decode signature \"{sig}\" is not registered in \
                 the PrimitiveDictionary; the scan layer cannot instantiate it"
            ));
        }
        let flavors: Vec<&String> = kernels
            .iter()
            .filter(|k| k.starts_with(&format!("{sig}_")))
            .collect();
        if flavors.len() != *pinned {
            violations.push(format!(
                "decode.rs: signature {sig} defines {} flavor kernel(s), \
                 DECODE_FLAVOR_ALLOWLIST pins {pinned}; keep ≥ 3 flavors per \
                 signature and the pin exact",
                flavors.len()
            ));
        }
        for f in flavors {
            if !registry.contains(f.as_str()) {
                violations.push(format!(
                    "registry.rs: decode flavor {f} is defined in decode.rs but \
                     never registered under \"{sig}\"; the bandit cannot pick \
                     an unregistered flavor"
                ));
            }
        }
    }
    for k in &kernels {
        let known = DECODE_FLAVOR_ALLOWLIST
            .iter()
            .any(|(sig, _, _)| *k == *sig || k.starts_with(&format!("{sig}_")));
        if !known {
            violations.push(format!(
                "decode.rs: kernel identifier {k} extends no signature in \
                 DECODE_FLAVOR_ALLOWLIST; add the new decode family (with ≥ 3 \
                 flavors) to the allowlist and register it"
            ));
        }
    }
}

/// All distinct identifiers in `src` starting with `prefix` (identifier
/// characters: ASCII alphanumerics and `_`), sorted. A hand-rolled
/// scanner — the lint stays dependency-free.
fn identifiers_with_prefix(src: &str, prefix: &str) -> Vec<String> {
    let bytes = src.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut out = std::collections::BTreeSet::new();
    let mut start = 0;
    while let Some(pos) = src[start..].find(prefix) {
        let begin = start + pos;
        // Reject matches inside a longer identifier (e.g. `x_decode_`).
        if begin > 0 && is_ident(bytes[begin - 1]) {
            start = begin + prefix.len();
            continue;
        }
        let mut end = begin + prefix.len();
        while end < bytes.len() && is_ident(bytes[end]) {
            end += 1;
        }
        // The bare prefix (e.g. `decode_*` in prose) is not an identifier.
        if end > begin + prefix.len() {
            out.insert(src[begin..end].to_string());
        }
        start = end;
    }
    out.into_iter().collect()
}

/// Compares a measured count against an exact-count allowlist entry
/// (default 0), reporting both overshoot and stale-allowlist undershoot.
fn check_exact(
    rel: &str,
    what: &str,
    count: usize,
    allowlist: &[(&str, usize, &str)],
    advice: &str,
    violations: &mut Vec<String>,
) {
    let allowed = allowlist
        .iter()
        .find(|(f, _, _)| *f == rel)
        .map(|(_, n, _)| *n)
        .unwrap_or(0);
    if count > allowed {
        violations.push(format!(
            "{rel}: {count} {what} in non-test code, allowlist permits {allowed}; {advice}"
        ));
    } else if count < allowed {
        violations.push(format!(
            "{rel}: {count} {what} but the allowlist still records {allowed}; \
             shrink its entry so the list stays exact"
        ));
    }
}

/// All `.rs` files under `dir`, recursively, in sorted order (stable
/// output for CI diffs). Skips `target/` just in case.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = match fs::read_dir(&d) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_test_region_truncates_at_cfg_test() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests { fn b() {} }\n";
        assert_eq!(non_test_region(src), "fn a() {}\n");
        assert_eq!(non_test_region("fn a() {}\n"), "fn a() {}\n");
    }

    #[test]
    fn count_matches_counts_all_needles() {
        assert_eq!(
            count_matches("x.unwrap(); y.expect(\"m\")", &[".unwrap()", ".expect("]),
            2
        );
    }

    #[test]
    fn lint_passes_on_this_repo() {
        let root = repo_root();
        let mut violations = Vec::new();
        lint_ops_unwraps(&root, &mut violations);
        lint_test_sleeps(&root, &mut violations);
        lint_operator_stats(&root, &mut violations);
        lint_mem_facade(&root, &mut violations);
        lint_decode_flavors(&root, &mut violations);
        assert!(violations.is_empty(), "lint violations: {violations:#?}");
    }

    #[test]
    fn identifier_scanner_respects_boundaries() {
        let src = "fn decode_for_i32_x() {} x_decode_y(); decode_a; decoded";
        assert_eq!(
            identifiers_with_prefix(src, "decode_"),
            vec!["decode_a".to_string(), "decode_for_i32_x".to_string()]
        );
    }
}

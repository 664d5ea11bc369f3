//! Fixture tests: for every rule, one snippet that fires, one that
//! must not, and one waived by an allow-pragma — plus pragma hygiene
//! and byte-determinism of the JSON report over a real on-disk tree.

use eavm_lint::{run_lint, scan_source, LintConfig, Rule};
use std::path::PathBuf;

fn scan(path: &str, src: &str) -> Vec<eavm_lint::Finding> {
    scan_source(path, src, &LintConfig::workspace_default())
}

fn violations(path: &str, src: &str) -> Vec<eavm_lint::Finding> {
    scan(path, src)
        .into_iter()
        .filter(|f| f.waived.is_none())
        .collect()
}

// ---------------------------------------------------------------- D1

#[test]
fn d1_fires_on_wall_clock_reads() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    let found = violations("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D1);
    assert_eq!(found[0].snippet, "Instant::now");

    let sys = "fn f() -> SystemTime { SystemTime::now() }";
    assert_eq!(
        violations("crates/core/src/x.rs", sys)[0].snippet,
        "SystemTime::now"
    );
}

#[test]
fn d1_ignores_instant_types_strings_and_bench_crate() {
    // Mentioning the type, or the call inside a string, is not a read.
    let src = r#"fn f(t: Instant) { let s = "Instant::now()"; }"#;
    assert!(violations("crates/core/src/x.rs", src).is_empty());
    // The bench crate is wall-clock by nature.
    let timed = "fn f() { let t = Instant::now(); }";
    assert!(violations("crates/bench/src/bin/probe.rs", timed).is_empty());
}

#[test]
fn d1_waived_by_pragma() {
    let src = "fn f() {\n    // eavm-lint: allow(D1, reason = \"operator display only\")\n    let t = Instant::now();\n}";
    let found = scan("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].waived.as_deref(), Some("operator display only"));
    assert!(violations("crates/core/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- D2

#[test]
fn d2_fires_on_os_randomness() {
    let src = "fn f() { let mut rng = rand::thread_rng(); }";
    let found = violations("crates/swf/src/gen.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D2);
    for banned in ["from_entropy", "OsRng", "getrandom", "RandomState"] {
        let src = format!("fn f() {{ let x = {banned}; }}");
        assert_eq!(
            violations("crates/swf/src/gen.rs", &src).len(),
            1,
            "{banned}"
        );
    }
}

#[test]
fn d2_ignores_seeded_generators() {
    let src = "fn f() { let rng = SplitMix64::new(42); let r = StdRng::seed_from_u64(7); }";
    assert!(violations("crates/swf/src/gen.rs", src).is_empty());
}

#[test]
fn d2_waived_by_pragma_same_line() {
    let src = "fn f() { let r = thread_rng(); } // eavm-lint: allow(D2, reason = \"fixture\")";
    let found = scan("crates/swf/src/gen.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].waived.is_some());
}

// ---------------------------------------------------------------- D3

#[test]
fn d3_fires_in_replay_critical_crates_only() {
    let src = "use std::collections::HashMap;";
    for path in [
        "crates/service/src/x.rs",
        "crates/simulator/src/x.rs",
        "crates/durability/src/x.rs",
        "crates/storage/src/x.rs",
        "crates/partitions/src/x.rs",
        "crates/scenario/src/x.rs",
        "crates/migrate/src/x.rs",
        "crates/overload/src/x.rs",
    ] {
        let found = violations(path, src);
        assert_eq!(found.len(), 1, "{path}");
        assert_eq!(found[0].rule, Rule::D3);
    }
    // Out of scope: the CLI is not replay-critical.
    assert!(violations("crates/cli/src/args.rs", src).is_empty());
    // HashSet is banned just like HashMap; BTreeMap never is.
    assert_eq!(
        violations("crates/service/src/x.rs", "use std::collections::HashSet;").len(),
        1
    );
    assert!(violations("crates/service/src/x.rs", "use std::collections::BTreeMap;").is_empty());
}

#[test]
fn d3_scenario_crate_positive_negative_pair() {
    // The scenario crate is replay-critical: an unordered map in the
    // compiler would let phase lowering drift between two runs of the
    // same file, breaking the CI byte-diff.
    let positive = "use std::collections::HashMap;\npub fn compile() {}";
    let found = violations("crates/scenario/src/compile.rs", positive);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D3);
    // The crate's actual idiom — ordered sets for duplicate-key
    // detection — stays clean.
    let negative = "use std::collections::BTreeSet;\npub fn parse() {}";
    assert!(violations("crates/scenario/src/parse.rs", negative).is_empty());
}

#[test]
fn d3_migrate_crate_positive_negative_pair() {
    // The migrate crate plans the migration schedule the service
    // journals and replays: an unordered map in `plan_moves` would let
    // the donor/receiver order drift between a live run and its crash
    // recovery, breaking verdict byte-parity.
    let positive = "use std::collections::HashMap;\npub fn plan_moves() {}";
    let found = violations("crates/migrate/src/policy.rs", positive);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D3);
    // The crate's actual idiom — index-ordered vectors — stays clean.
    let negative = "pub struct Hysteresis { cooldown: Vec<u32> }";
    assert!(violations("crates/migrate/src/policy.rs", negative).is_empty());
}

#[test]
fn d3_storage_crate_positive_negative_pair() {
    // The storage crate decides which operation a fault fires on: an
    // unordered map in the fault injector would reorder its PRNG draws
    // between two runs of the same seed, and the whole corruption
    // drill's "same seed, same damage, same scrub report" guarantee
    // falls apart.
    let positive = "use std::collections::HashMap;\npub fn inject() {}";
    let found = violations("crates/storage/src/faulty.rs", positive);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D3);
    // The crate's actual idiom — a seeded SplitMix64 stream — is clean.
    let negative = "pub struct FaultState { rng_state: u64, budget: u64 }";
    assert!(violations("crates/storage/src/faulty.rs", negative).is_empty());
}

#[test]
fn d3_and_d1_overload_crate_positive_negative_pair() {
    // The overload crate re-derives limiter/breaker state from the
    // journaled verdict stream: an unordered map in the plane would let
    // AIMD cut order drift between a live run and its crash recovery,
    // and a wall-clock read would detach queue aging from the virtual
    // clock entirely.
    let positive = "use std::collections::HashMap;\npub fn on_shed() {}";
    let found = violations("crates/overload/src/lib.rs", positive);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D3);
    let clocky = "pub fn settle() { let t = std::time::Instant::now(); }";
    let found = violations("crates/overload/src/lib.rs", clocky);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D1);
    // The crate's actual idiom — a logical `now` advanced by journaled
    // submit/clock events over index-ordered limits — stays clean.
    let negative = "pub struct OverloadPlane { now: f64, limits: Vec<f64> }";
    assert!(violations("crates/overload/src/lib.rs", negative).is_empty());
}

#[test]
fn d3_skips_test_code() {
    let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}";
    assert!(violations("crates/service/src/x.rs", src).is_empty());
    let in_tests_dir = "use std::collections::HashMap;";
    assert!(violations("crates/service/tests/t.rs", in_tests_dir).is_empty());
}

#[test]
fn cfg_test_gates_one_item_not_the_rest_of_the_file() {
    // A mid-file test-only helper must not exempt the code below it.
    let src = "#[cfg(test)]\nfn helper() {}\nuse std::collections::HashMap;";
    let found = violations("crates/service/src/x.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::D3);
    // ... while a violation inside the gated item stays exempt.
    let gated = "#[cfg(test)]\nfn helper() {\n    use std::collections::HashMap;\n    let _m: HashMap<u32, u32> = HashMap::new();\n}";
    assert!(violations("crates/service/src/x.rs", gated).is_empty());
    // Brace-less gated items end at the semicolon.
    let braceless = "#[cfg(test)]\nmod tests;\nuse std::collections::HashSet;";
    assert_eq!(violations("crates/service/src/x.rs", braceless).len(), 1);
}

#[test]
fn d3_waived_by_pragma() {
    let src = "// eavm-lint: allow(D3, reason = \"point lookups only (never iterated)\")\nuse std::collections::HashMap;";
    let found = scan("crates/service/src/x.rs", src);
    assert_eq!(found.len(), 1);
    // A reason containing parens survives to the closing delimiter.
    assert_eq!(
        found[0].waived.as_deref(),
        Some("point lookups only (never iterated)")
    );
}

// ---------------------------------------------------------------- P1

#[test]
fn p1_fires_on_panic_paths_in_fleet_state() {
    let path = "crates/service/src/fleet.rs";
    assert_eq!(
        violations(path, "fn f(x: Option<u32>) -> u32 { x.unwrap() }")[0].snippet,
        ".unwrap()"
    );
    assert_eq!(
        violations(path, "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }")[0].snippet,
        ".expect()"
    );
    assert_eq!(
        violations(path, "fn f() { panic!(\"boom\"); }")[0].snippet,
        "panic!"
    );
    assert_eq!(
        violations(path, "fn f() { unreachable!(); }")[0].snippet,
        "unreachable!"
    );
    assert_eq!(
        violations(path, "fn f(v: &[u32]) -> u32 { v[0] }")[0].snippet,
        "v[..]"
    );
}

#[test]
fn p1_ignores_non_panicking_lookalikes_and_other_files() {
    let path = "crates/service/src/fleet.rs";
    let benign = "fn f(x: Option<u32>, v: &[u32; 3], w: Vec<u32>) -> u32 {\n\
                  let [a, _b, _c] = *v;\n\
                  let d: [u32; 2] = [1, 2];\n\
                  #[allow(dead_code)]\n\
                  let e = vec![3];\n\
                  x.unwrap_or(0) + x.unwrap_or_default() + w.first().copied().unwrap_or(a) + d.first().copied().unwrap_or(0) + e.len() as u32\n\
                  }";
    assert!(
        violations(path, benign).is_empty(),
        "{:?}",
        violations(path, benign)
    );
    // The same panicky code outside the fleet module is out of scope.
    assert!(violations(
        "crates/service/src/service.rs",
        "fn f(v: &[u32]) -> u32 { v[0] }"
    )
    .is_empty());
    // Test code in the same file is exempt.
    let tail = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}";
    assert!(violations(path, tail).is_empty());
}

#[test]
fn p1_waived_by_pragma() {
    let src =
        "fn f() {\n    // eavm-lint: allow(P1, reason = \"fixture\")\n    panic!(\"injected\");\n}";
    let found = scan("crates/service/src/fleet.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].waived.is_some());
}

// ---------------------------------------------------------------- C1

#[test]
fn c1_fires_on_bare_numeric_casts_in_codec() {
    let src = "fn f(v: &[u8]) -> u32 { v.len() as u32 }";
    let found = violations("crates/durability/src/codec.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::C1);
    assert_eq!(found[0].snippet, "as u32");
    assert_eq!(
        violations(
            "crates/durability/src/record.rs",
            "fn g(n: u32) -> usize { n as usize }"
        )
        .len(),
        1
    );
}

#[test]
fn c1_ignores_try_from_renames_and_other_files() {
    let path = "crates/durability/src/codec.rs";
    let checked = "fn f(v: &[u8]) -> u32 { u32::try_from(v.len()).unwrap_or(u32::MAX) }";
    assert!(violations(path, checked).is_empty());
    // `use x as y` is a rename, not a cast.
    assert!(violations(path, "use std::io::Error as IoError;").is_empty());
    // Casts elsewhere in the durability crate are out of C1's scope.
    assert!(violations(
        "crates/durability/src/wal.rs",
        "fn f(n: usize) -> u64 { n as u64 }"
    )
    .is_empty());
}

#[test]
fn c1_waived_by_pragma() {
    let src = "// eavm-lint: allow(C1, reason = \"table index, bounded by construction\")\nfn f(i: u32) -> usize { i as usize }";
    let found = scan("crates/durability/src/codec.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].waived.is_some());
}

// ------------------------------------------------------------ pragmas

#[test]
fn pragma_without_reason_is_malformed_and_waives_nothing() {
    let src = "// eavm-lint: allow(D1)\nlet t = Instant::now();";
    let found = scan("crates/core/src/x.rs", src);
    let rules: Vec<Rule> = found.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&Rule::Pragma), "{found:?}");
    assert!(
        found
            .iter()
            .any(|f| f.rule == Rule::D1 && f.waived.is_none()),
        "the D1 hit must stay unwaived: {found:?}"
    );
}

#[test]
fn pragma_with_unknown_rule_is_malformed() {
    let src = "// eavm-lint: allow(D9, reason = \"no such rule\")\nfn f() {}";
    let found = scan("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::Pragma);
}

#[test]
fn pragma_only_covers_its_own_rule_and_adjacent_lines() {
    // A D2 pragma does not waive a D1 hit — and, having waived
    // nothing, is itself reported stale.
    let src = "// eavm-lint: allow(D2, reason = \"wrong rule\")\nlet t = Instant::now();";
    let found = violations("crates/core/src/x.rs", src);
    assert_eq!(found.iter().filter(|f| f.rule == Rule::D1).count(), 1);
    assert_eq!(
        found
            .iter()
            .filter(|f| f.rule == Rule::UnusedWaiver)
            .count(),
        1
    );
    // Two lines below the pragma is out of its reach.
    let far =
        "// eavm-lint: allow(D1, reason = \"too far away\")\nfn f() {}\nlet t = Instant::now();";
    let found = violations("crates/core/src/x.rs", far);
    assert_eq!(found.iter().filter(|f| f.rule == Rule::D1).count(), 1);
    assert_eq!(
        found
            .iter()
            .filter(|f| f.rule == Rule::UnusedWaiver)
            .count(),
        1
    );
}

// ---------------------------------------------------------------- D4

#[test]
fn d4_fires_on_float_comparisons_and_partial_cmp_unwrap() {
    let path = "crates/simulator/src/x.rs";
    // A float literal on either side is enough.
    let found = violations(path, "fn f(x: f64) -> bool { x == 0.0 }");
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].rule, Rule::D4);
    assert_eq!(found[0].snippet, "float ==");
    // No literal at all: both operands resolved via the symbol index.
    assert_eq!(
        violations(path, "fn f(a: f64, b: f64) -> bool { a != b }")[0].snippet,
        "float !="
    );
    // `partial_cmp` chained straight into unwrap/expect.
    assert_eq!(
        violations(
            path,
            "fn f(a: f64, b: f64) -> O { a.partial_cmp(&b).unwrap() }"
        )[0]
        .snippet,
        "partial_cmp(..).unwrap()"
    );
    assert_eq!(
        violations(
            path,
            "fn f(a: f64, b: f64) -> O { a.partial_cmp(&b).expect(\"fin\") }"
        )[0]
        .snippet,
        "partial_cmp(..).expect()"
    );
}

#[test]
fn d4_ignores_integer_eq_total_cmp_and_out_of_scope_crates() {
    let path = "crates/simulator/src/x.rs";
    assert!(violations(path, "fn f(n: u64) -> bool { n == 0 }").is_empty());
    assert!(violations(path, "fn f(a: f64, b: f64) -> O { a.total_cmp(&b) }").is_empty());
    // Unchained partial_cmp is fine — the caller handles the None.
    assert!(violations(
        path,
        "fn f(a: f64, b: f64) -> Option<O> { a.partial_cmp(&b) }"
    )
    .is_empty());
    // The bench crate computes wall-clock stats; D4 is scoped away.
    assert!(violations("crates/bench/src/x.rs", "fn f(x: f64) -> bool { x == 0.0 }").is_empty());
}

#[test]
fn d4_waived_by_pragma() {
    let src = "fn f(x: f64) -> bool {\n    // eavm-lint: allow(D4, reason = \"exact-zero sentinel\")\n    x == 0.0\n}";
    let found = scan("crates/simulator/src/x.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].waived.is_some());
    assert!(violations("crates/simulator/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- P2

#[test]
fn p2_fires_on_blocking_io_in_fleet_state() {
    let path = "crates/service/src/fleet.rs";
    assert_eq!(
        violations(path, "fn f() { println!(\"x\"); }")[0].snippet,
        "println!"
    );
    assert_eq!(
        violations(path, "fn f() { eprintln!(\"boom: {e}\"); }")[0].snippet,
        "eprintln!"
    );
    assert_eq!(
        violations(
            path,
            "fn f() -> Vec<u8> { std::fs::read(\"p\").unwrap_or_default() }"
        )[0]
        .snippet,
        "std::fs"
    );
    assert_eq!(
        violations(
            path,
            "fn f(buf: &mut String) { io::stdin().read_line(buf).ok(); }"
        )[0]
        .snippet,
        "stdin"
    );
}

#[test]
fn p2_ignores_formatting_channels_and_other_files() {
    let path = "crates/service/src/fleet.rs";
    // In-memory formatting and channel sends are not blocking I/O.
    assert!(violations(path, "fn f(n: u32) -> String { format!(\"{n}\") }").is_empty());
    assert!(violations(path, "fn f(tx: &Sender<u32>) { let _ = tx.send(1); }").is_empty());
    // The same I/O outside the fleet module is out of scope.
    assert!(violations(
        "crates/service/src/service.rs",
        "fn f() { println!(\"x\"); }"
    )
    .is_empty());
    // Test code in the fleet module is exempt.
    let tail = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { println!(\"t\"); }\n}";
    assert!(violations(path, tail).is_empty());
}

#[test]
fn p2_waived_by_pragma() {
    let src = "fn f() {\n    // eavm-lint: allow(P2, reason = \"crash-drill breadcrumb\")\n    eprintln!(\"dying\");\n}";
    let found = scan("crates/service/src/fleet.rs", src);
    assert_eq!(found.len(), 1);
    assert!(found[0].waived.is_some());
}

// ---------------------------------------------------------------- C2

#[test]
fn c2_fires_on_wildcard_arms_in_codec_fns() {
    let src = "impl Rec {\n    fn decode(tag: u8) -> Result<Rec, E> {\n        match tag {\n            1 => Ok(Rec::A),\n            _ => Ok(Rec::A),\n        }\n    }\n}";
    let found = violations("crates/durability/src/record.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::C2);
    assert_eq!(found[0].snippet, "`_ =>` in decode");
    // The storage crate's codecs are in scope too, and a nested match
    // inside an encode fn is still that fn's responsibility.
    let nested = "fn encode_header(h: &H) -> u8 {\n    match h.kind {\n        K::A => match h.sub {\n            0 => 1,\n            _ => 2,\n        },\n        K::B => 3,\n    }\n}";
    let found = violations("crates/storage/src/journal.rs", nested);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::C2);
}

#[test]
fn c2_ignores_binding_arms_non_codec_fns_and_inner_wildcards() {
    let path = "crates/durability/src/wal.rs";
    // A binding arm fails loudly on a new variant — that is the idiom
    // C2 pushes toward.
    let binding = "fn decode(tag: u8) -> Result<Rec, E> {\n    match tag {\n        1 => Ok(Rec::A),\n        tag => Err(E::UnknownTag(tag)),\n    }\n}";
    assert!(violations(path, binding).is_empty());
    // A wildcard in a *display* helper is not a codec hazard.
    let display = "fn shed_name(r: Reason) -> &'static str {\n    match r {\n        Reason::Full => \"full\",\n        _ => \"unknown\",\n    }\n}";
    assert!(violations(path, display).is_empty());
    // `_` inside a pattern (`Ok(_)`) is not a wildcard *arm*.
    let inner = "fn decode(r: R) -> u8 {\n    match r {\n        Ok(_) => 1,\n        Err(e) => e.code(),\n    }\n}";
    assert!(violations(path, inner).is_empty());
    // Out-of-scope crate: the CLI may match loosely.
    let loose = "fn decode_flag(s: &str) -> u8 { match s { \"a\" => 1, _ => 0 } }";
    assert!(violations("crates/cli/src/args.rs", loose).is_empty());
}

#[test]
fn c2_waived_by_pragma() {
    let src = "fn decode(tag: u8) -> u8 {\n    match tag {\n        1 => 1,\n        // eavm-lint: allow(C2, reason = \"legacy frames deliberately coerce to the null record\")\n        _ => 0,\n    }\n}";
    let found = scan("crates/durability/src/wal.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].waived.is_some());
}

// ---------------------------------------------------------------- W1

#[test]
fn w1_fires_on_ack_before_or_without_journal() {
    let path = "crates/service/src/x.rs";
    // Ack first, journal after: the crash window C2/W1 exist for.
    let inverted = "impl S {\n    fn admit(&mut self, t: u64, v: V) {\n        let _ = self.verdict_tx.send((t, v));\n        self.journal_append(&rec(t));\n    }\n}";
    let found = violations(path, inverted);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::W1);
    assert_eq!(
        found[0].snippet,
        "verdict_tx.send before any journal append"
    );
    // An execute with no journal call anywhere in the fn.
    let unjournaled = "impl S {\n    fn consolidate(&mut self, m: &Move) {\n        if self.execute_move(m, stall) {\n            self.tally += 1;\n        }\n    }\n}";
    let found = violations(path, unjournaled);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::W1);
}

#[test]
fn w1_ignores_journal_first_bodies_and_definitions() {
    let path = "crates/service/src/x.rs";
    // The correct discipline: journal, then ack — even conditionally.
    let correct = "impl S {\n    fn admit(&mut self, t: u64, v: V) {\n        if self.journal_append(&rec(t)) {\n            let _ = self.verdict_tx.send((t, v));\n        }\n    }\n    fn consolidate(&mut self, m: &Move) {\n        self.journal_append(&mig(m));\n        self.execute_move(m, stall);\n    }\n}";
    assert!(
        violations(path, correct).is_empty(),
        "{:?}",
        violations(path, correct)
    );
    // The `fn execute_move(` definition is not a call site.
    let def = "impl S {\n    fn execute_move(&mut self, m: &Move, stall: f64) -> bool {\n        self.apply(m)\n    }\n}";
    assert!(violations(path, def).is_empty());
    // Out of scope: only the service crate journals verdicts.
    let elsewhere = "fn f(tx: &T) { let _ = tx.verdict_tx.send((0, v)); }";
    assert!(violations("crates/simulator/src/x.rs", elsewhere).is_empty());
}

#[test]
fn w1_waived_by_pragma() {
    let src = "impl S {\n    fn replay(&mut self, t: u64, v: V) {\n        // eavm-lint: allow(W1, reason = \"recovery rebroadcast: the record being replayed IS the journal entry\")\n        let _ = self.verdict_tx.send((t, v));\n    }\n}";
    let found = scan("crates/service/src/x.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].waived.is_some());
}

// ------------------------------------------------------ unused-waiver

#[test]
fn stale_pragma_is_reported() {
    let src = "// eavm-lint: allow(D1, reason = \"was needed before the refactor\")\nfn f() -> u64 { 42 }";
    let found = violations("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::UnusedWaiver);
    assert!(found[0].snippet.contains("allow(D1)"));
}

#[test]
fn used_pragma_is_not_reported_stale() {
    let src = "// eavm-lint: allow(D1, reason = \"display only\")\nlet t = Instant::now();";
    let found = scan("crates/core/src/x.rs", src);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].waived.is_some());
}

#[test]
fn doc_comment_pragmas_are_inert() {
    // A pragma inside documentation (like the examples in this crate's
    // own rustdoc) neither waives nor goes stale.
    let src = "//! ```text\n//! // eavm-lint: allow(D1, reason = \"docs example\")\n//! ```\nfn f() -> u64 { 7 }";
    assert!(scan("crates/core/src/x.rs", src).is_empty());
    let block = "/** // eavm-lint: allow(D2) */\nfn f() -> u64 { 7 }";
    assert!(scan("crates/core/src/x.rs", block).is_empty());
}

#[test]
fn stale_pragma_not_reported_when_its_rule_is_out_of_scope() {
    // A D1 pragma in the bench crate: D1 never runs there, so the
    // checker cannot know whether the waiver is stale.
    let src = "// eavm-lint: allow(D1, reason = \"bench is wall-clock\")\nfn f() {}";
    assert!(violations("crates/bench/src/x.rs", src).is_empty());
}

#[test]
fn stale_pragma_not_reported_under_rules_filter() {
    use eavm_lint::parse_rule_list;
    let base = LintConfig::workspace_default();
    let src = "// eavm-lint: allow(D1, reason = \"stale\")\nfn f() -> u64 { 1 }";
    // Filtered to D3 + unused-waiver: D1 did not run, so its pragma is
    // not judged.
    let without_d1 = base.restricted(&parse_rule_list("D3,unused-waiver").expect("rules"));
    assert!(scan_source("crates/core/src/x.rs", src, &without_d1).is_empty());
    // With D1 in the run, the stale pragma is reported again.
    let with_d1 = base.restricted(&parse_rule_list("D1,unused-waiver").expect("rules"));
    let found = scan_source("crates/core/src/x.rs", src, &with_d1);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, Rule::UnusedWaiver);
}

#[test]
fn rule_list_rejects_unknown_ids() {
    use eavm_lint::parse_rule_list;
    let err = parse_rule_list("D1,bogus").expect_err("must reject");
    assert!(err.contains("bogus"), "{err}");
    assert!(err.contains("known rules"), "{err}");
    assert!(parse_rule_list("  ").is_err());
    let ok = parse_rule_list("W1, C2").expect("valid list");
    assert_eq!(ok.len(), 2);
}

// ------------------------------------------------------- determinism

/// Build a small workspace-shaped tree on disk, lint it twice, and
/// require byte-identical reports — the same property CI relies on for
/// the real tree.
#[test]
fn json_report_is_byte_deterministic_across_runs() {
    let root = std::env::temp_dir().join(format!("eavm-lint-fixture-{}", std::process::id()));
    let write = |rel: &str, body: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, body).expect("write fixture");
    };
    write(
        "crates/zeta/src/lib.rs",
        "pub fn f() { let t = Instant::now(); }\n",
    );
    write(
        "crates/alpha/src/lib.rs",
        "pub fn g() { let r = thread_rng(); }\n",
    );
    write(
        "crates/service/src/fleet.rs",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n// eavm-lint: allow(P1, reason = \"fixture\")\nfn g() { panic!(\"waived\"); }\n",
    );
    write("src/lib.rs", "pub fn root() {}\n");

    let a = run_lint(&root).expect("first run");
    let b = run_lint(&root).expect("second run");
    assert_eq!(a.render_json(), b.render_json());
    assert_eq!(a.render_text(), b.render_text());

    // Findings are path-sorted: alpha before service before zeta.
    let paths: Vec<&str> = a.violations().map(|f| f.path.as_str()).collect();
    assert_eq!(
        paths,
        [
            "crates/alpha/src/lib.rs",
            "crates/service/src/fleet.rs",
            "crates/zeta/src/lib.rs"
        ]
    );
    assert_eq!(a.waived().count(), 1);
    assert_eq!(a.files_scanned, 4);

    std::fs::remove_dir_all(&root).expect("cleanup");

    // And the rendered JSON is structurally what CI's --format json
    // consumers expect.
    let json = a.render_json();
    assert!(json.contains("\"violation_count\": 3"), "{json}");
    assert!(json.contains("\"waived_count\": 1"), "{json}");
}

/// The tool must pass on its own workspace — the same gate CI runs.
/// (Kept here rather than only in ci/check.sh so `cargo test` alone
/// catches a freshly introduced violation.)
#[test]
fn own_workspace_is_clean() {
    // crates/lint/tests -> workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root")
        .to_path_buf();
    if !root.join("Cargo.toml").exists() {
        return; // sdist-style layout; CI covers this via the CLI.
    }
    let report = run_lint(&root).expect("lint own tree");
    let bad: Vec<String> = report
        .violations()
        .map(|f| format!("{}:{} {} {}", f.path, f.line, f.rule.id(), f.snippet))
        .collect();
    assert!(
        bad.is_empty(),
        "unwaived violations in the workspace:\n{}",
        bad.join("\n")
    );
    // The v2 audit left reasoned D4 waivers behind (exact-zero
    // sentinels, trace-identity grouping); their presence proves the
    // new rules actually ran over the tree.
    assert!(
        report.waived().any(|f| f.rule == Rule::D4),
        "expected the workspace's D4 waivers in the audit trail"
    );
}

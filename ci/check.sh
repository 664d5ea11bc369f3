#!/usr/bin/env bash
# The repo's CI gate: build, test, format, lint — in that order, so the
# cheapest failure mode (a broken build) surfaces before the slow test
# run, and style gates never mask a real breakage.
#
# Run locally before pushing: ./ci/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# Every temp dir any step allocates lands here; the single EXIT trap
# sweeps them all, so later steps can add dirs without clobbering it.
TMP_DIRS=()
cleanup() {
    for d in ${TMP_DIRS[@]+"${TMP_DIRS[@]}"}; do
        rm -rf "$d"
    done
}
trap cleanup EXIT

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy.toml canary (every disallowed path still resolves)"
# The workspace invariants (DESIGN.md §10) ride on the clippy step
# above. clippy only warns about a `clippy.toml` path it cannot
# resolve, and that warning survives `-D warnings`, so a typo would
# silently switch a rule off. A one-file crate using every disallowed
# item must fail clippy under the repo's configuration, naming each.
CANARY_DIR="$(mktemp -d)"
TMP_DIRS+=("$CANARY_DIR")
mkdir "$CANARY_DIR/src"
cat > "$CANARY_DIR/Cargo.toml" <<'TOML'
[package]
name = "clippy-canary"
version = "0.0.0"
edition = "2021"

[workspace]
TOML
cat > "$CANARY_DIR/src/lib.rs" <<'RUST'
pub fn canary() {
    let _ = std::time::Instant::now();
    let _ = std::time::SystemTime::now();
    let _: std::collections::HashMap<u8, u8> = std::collections::HashMap::new();
    let _: std::collections::HashSet<u8> = std::collections::HashSet::new();
    let _ = std::collections::hash_map::RandomState::new();
}
RUST
if CANARY_OUT="$(CLIPPY_CONF_DIR="$PWD" cargo clippy --quiet \
        --manifest-path "$CANARY_DIR/Cargo.toml" \
        --target-dir "$CANARY_DIR/target" -- -D warnings 2>&1)"; then
    echo "clippy canary: a crate using every disallowed item passed"; exit 1
fi
for item in std::time::Instant::now std::time::SystemTime::now \
        std::collections::HashMap std::collections::HashSet \
        std::collections::hash_map::RandomState; do
    grep -q "disallowed [a-z]* \`$item\`" <<< "$CANARY_OUT" \
        || { echo "clippy canary: $item is not disallowed (clippy.toml typo?)"; \
             echo "$CANARY_OUT"; exit 1; }
done

echo "==> cargo bench --no-run"
cargo bench --no-run --workspace

echo "==> perfbench (self-test + a zero-second pass of every workload)"
# perfbench/ is a cargo workspace of its own, so the steps above never
# build it. It drives core and service through their public API and
# reads their counter names (`service.cache.*`), so a change there can
# break the benchmark silently. Build it, run its self-test, and
# require its last line (the JSON report) to say `"correct": true`.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
PERF_OUT="$(cargo run --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -- --workload all --seconds 0)"
[[ "$(tail -n 1 <<< "$PERF_OUT")" == *'"correct": true'* ]] \
    || { echo "perfbench smoke: a pass was not correct"; echo "$PERF_OUT"; exit 1; }
# The same run prints the ladder's deterministic work counts for the
# default seed (per request, six decimals). They depend only on the
# trace and the decisions, never on the host, so they are gated
# exactly. A change that moves a count updates its value here in the
# same change and says why in CHANGES.md.
awk '
    BEGIN {
        want["core.proactive.searches_per_req"] = "1.879024"
        want["core.proactive.partitions_per_req"] = "5.769115"
        want["core.proactive.pruned_per_req"] = "464.513078"
        want["core.model.calls_per_req"] = "298.318410"
        want["service.memo.lookups_per_req"] = "223.326962"
        want["service.search.partitions_per_req"] = "3.699950"
        want["durability.frames_per_req"] = "2.203219"
    }
    ($1 in want) { got[$1] = $2 }
    END {
        bad = 0
        for (k in want) {
            v = (k in got) ? got[k] : "missing"
            if (v != want[k]) {
                print "perfbench counts: " k " = " v ", want " want[k]
                bad = 1
            }
        }
        exit bad
    }' <<< "$PERF_OUT" || exit 1

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> chaos smoke (deterministic fault injection)"
# Output checks read captured output through a here-string, not
# `echo | grep -q`: under `pipefail` that pipe fails whenever grep
# matches and exits before echo has written its last line (SIGPIPE),
# which a loaded machine makes happen.
# A short replay with a nonzero fault rate must exit 0 and conserve VM
# placements (trace + restarts).
CHAOS_DIR="$(mktemp -d)"
TMP_DIRS+=("$CHAOS_DIR")
CLI=(cargo run --release -q -p eavm-cli --)
"${CLI[@]}" build-db --out-dir "$CHAOS_DIR/db" --exact --threads 4 > /dev/null
"${CLI[@]}" gen-trace --out "$CHAOS_DIR/t.swf" --jobs 200 --seed 5 > /dev/null
REPLAY_OUT="$("${CLI[@]}" replay-online --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
    --fault-seed 42 --fault-rate 1.0)"
grep -q "faults: seed=42" <<< "$REPLAY_OUT" \
    || { echo "chaos smoke: no faults line"; echo "$REPLAY_OUT"; exit 1; }
grep -q "conservation: ok" <<< "$REPLAY_OUT" \
    || { echo "chaos smoke: conservation violated"; echo "$REPLAY_OUT"; exit 1; }

echo "==> crash-loop smoke (durable service recovery)"
# Control: a full run under a journal; its verdict log is the ground
# truth. An unjournaled run must produce the same log (the admission
# loop decides one request at a time, so the verdicts cannot depend on
# the driving mode). Then the same run is killed mid-stream by the
# crash schedule (the process SIGABRTs after N journal appends),
# recovered from whatever hit the disk, and both the reconstructed
# verdict log and the recovered journal directory must be
# byte-identical to the control's.
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
    --journal-dir "$CHAOS_DIR/ctrl" --checkpoint-every 16 \
    --verdicts-out "$CHAOS_DIR/ctrl.log" > /dev/null
test -s "$CHAOS_DIR/ctrl.log" \
    || { echo "crash-loop smoke: control wrote no verdicts"; exit 1; }
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
    --verdicts-out "$CHAOS_DIR/plain.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CHAOS_DIR/plain.log" \
    || { echo "crash-loop smoke: verdict log depends on the driving mode"; \
         diff "$CHAOS_DIR/ctrl.log" "$CHAOS_DIR/plain.log" | head -20; exit 1; }
# Two crash points: 37 lands between requests, 50 after a request's
# mid-request `Clock` frame, whose re-driven decision must not journal
# that frame a second time.
for cut in 37 50; do
    CRASH="$CHAOS_DIR/crash-$cut"
    # The crashed run aborts by design: a nonzero exit here is the point.
    "${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
        --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
        --journal-dir "$CRASH" --checkpoint-every 16 \
        --crash-after-events "$cut" > /dev/null 2>&1 || true
    test -s "$CRASH/wal.log" \
        || { echo "crash-loop smoke: crashed run left no WAL (cut $cut)"; exit 1; }
    "${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
        --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
        --journal-dir "$CRASH" --checkpoint-every 16 \
        --verdicts-out "$CRASH.log" > /dev/null
    cmp "$CHAOS_DIR/ctrl.log" "$CRASH.log" \
        || { echo "crash-loop smoke: recovered verdict log diverged (cut $cut)"; \
             diff "$CHAOS_DIR/ctrl.log" "$CRASH.log" | head -20; exit 1; }
    # Not only the verdicts: the recovered journal directory (WAL plus
    # every checkpoint snapshot) must be byte-identical to the control's.
    diff -r "$CHAOS_DIR/ctrl" "$CRASH" \
        || { echo "crash-loop smoke: recovered journal diverged (cut $cut)"; exit 1; }
done

echo "==> consolidation crash drill (mid-sweep recovery parity)"
# Same drill with online consolidation sweeps running between
# admissions: Migrate frames are journaled *before* their moves
# execute, so a crash landing mid-sweep must recover — replaying the
# journaled move schedule, never re-planning — to a verdict log
# byte-identical to the uncrashed control's.
CONS_FLAGS=(--consolidate-every 50 --drain-threshold 2)
CONS_OUT="$("${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 8 --vms 200 \
    --journal-dir "$CHAOS_DIR/cons-ctrl" --checkpoint-every 16 \
    "${CONS_FLAGS[@]}" --verdicts-out "$CHAOS_DIR/cons-ctrl.log")"
grep -q "consolidation: sweeps=" <<< "$CONS_OUT" \
    || { echo "consolidation drill: no sweeps ran"; echo "$CONS_OUT"; exit 1; }
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 8 --vms 200 \
    --journal-dir "$CHAOS_DIR/cons-crash" --checkpoint-every 16 \
    "${CONS_FLAGS[@]}" --crash-after-events 53 > /dev/null 2>&1 || true
test -s "$CHAOS_DIR/cons-crash/wal.log" \
    || { echo "consolidation drill: crashed run left no WAL"; exit 1; }
"${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 8 --vms 200 \
    --journal-dir "$CHAOS_DIR/cons-crash" --checkpoint-every 16 \
    "${CONS_FLAGS[@]}" --verdicts-out "$CHAOS_DIR/cons-rec.log" > /dev/null
cmp "$CHAOS_DIR/cons-ctrl.log" "$CHAOS_DIR/cons-rec.log" \
    || { echo "consolidation drill: recovered verdict log diverged"; \
         diff "$CHAOS_DIR/cons-ctrl.log" "$CHAOS_DIR/cons-rec.log" | head -20; exit 1; }
diff -r "$CHAOS_DIR/cons-ctrl" "$CHAOS_DIR/cons-crash" \
    || { echo "consolidation drill: recovered journal diverged"; exit 1; }

echo "==> corruption matrix drill (scrub + degraded-mode recovery parity)"
# Four storage-fault cells, each driven back to the uncrashed control's
# verdict log byte for byte: a bit-flipped newest snapshot, a torn WAL
# tail, ENOSPC mid-run, and a crash with every fsync dropped. Scrub
# reports are seeded-deterministic: the same corruption seed on an
# identical journal copy must render the identical report.
CORR_DIR="$(mktemp -d)"
TMP_DIRS+=("$CORR_DIR")
RECOVER=("${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
    --checkpoint-every 16)

# Cell 1: bit-flip the newest snapshot — twice, on two identical
# copies, to pin the scrub report's determinism.
for side in a b; do
    mkdir "$CORR_DIR/flip-$side"
    cp "$CHAOS_DIR/ctrl/"* "$CORR_DIR/flip-$side/"
    "${CLI[@]}" corrupt --journal-dir "$CORR_DIR/flip-$side" \
        --kind snapshot-bit-flip --seed 9 > /dev/null
    "${CLI[@]}" scrub --journal-dir "$CORR_DIR/flip-$side" \
        > "$CORR_DIR/flip-$side.report"
done
cmp "$CORR_DIR/flip-a.report" "$CORR_DIR/flip-b.report" \
    || { echo "corruption drill: scrub report not deterministic"; \
         diff "$CORR_DIR/flip-a.report" "$CORR_DIR/flip-b.report"; exit 1; }
grep -q "quarantined=1" "$CORR_DIR/flip-a.report" \
    || { echo "corruption drill: flipped snapshot not quarantined"; \
         cat "$CORR_DIR/flip-a.report"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/flip-a" \
    --verdicts-out "$CORR_DIR/flip.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/flip.log" \
    || { echo "corruption drill: snapshot-bit-flip cell diverged"; exit 1; }

# Cell 2: torn WAL tail — a frame header promising bytes that never
# landed. Scrub repairs the tail; a second scrub must come back clean.
mkdir "$CORR_DIR/torn"
cp "$CHAOS_DIR/ctrl/"* "$CORR_DIR/torn/"
"${CLI[@]}" corrupt --journal-dir "$CORR_DIR/torn" \
    --kind wal-torn-tail --seed 7 > /dev/null
"${CLI[@]}" scrub --journal-dir "$CORR_DIR/torn" > "$CORR_DIR/torn.report"
grep -q "torn_tails_repaired=1" "$CORR_DIR/torn.report" \
    || { echo "corruption drill: torn tail not repaired"; \
         cat "$CORR_DIR/torn.report"; exit 1; }
"${CLI[@]}" scrub --journal-dir "$CORR_DIR/torn" | grep -q "verdict: clean" \
    || { echo "corruption drill: scrub not idempotent on torn tail"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/torn" \
    --verdicts-out "$CORR_DIR/torn.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/torn.log" \
    || { echo "corruption drill: wal-torn-tail cell diverged"; exit 1; }

# Cell 3: ENOSPC mid-checkpoint — the byte budget runs dry mid-stream,
# the service degrades (WAL-only, then read-only shed) but must still
# conserve verdicts; recovery on healthy storage re-drives the
# undecided suffix back to parity.
ENOSPC_OUT="$("${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
    --journal-dir "$CORR_DIR/enospc" --checkpoint-every 16 \
    --storage-enospc-after 6000 --storage-fault-seed 3)"
grep -q "conservation: ok" <<< "$ENOSPC_OUT" \
    || { echo "corruption drill: ENOSPC run lost verdicts"; echo "$ENOSPC_OUT"; exit 1; }
grep -q "storage: faults-injected=" <<< "$ENOSPC_OUT" \
    || { echo "corruption drill: ENOSPC run injected no faults"; echo "$ENOSPC_OUT"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/enospc" --scrub \
    --verdicts-out "$CORR_DIR/enospc.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/enospc.log" \
    || { echo "corruption drill: ENOSPC cell diverged"; \
         diff "$CHAOS_DIR/ctrl.log" "$CORR_DIR/enospc.log" | head -20; exit 1; }

# Cell 4: every fsync dropped, then a hard crash — the WAL bytes that
# reached the page cache must still replay to the control's log.
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$CHAOS_DIR/t.swf" --servers 6 --vms 200 \
    --journal-dir "$CORR_DIR/dropsync" --checkpoint-every 16 \
    --storage-drop-sync 1.0 --storage-fault-seed 11 \
    --crash-after-events 37 > /dev/null 2>&1 || true
test -s "$CORR_DIR/dropsync/wal.log" \
    || { echo "corruption drill: dropped-fsync run left no WAL"; exit 1; }
"${RECOVER[@]}" --journal-dir "$CORR_DIR/dropsync" --scrub \
    --verdicts-out "$CORR_DIR/dropsync.log" > /dev/null
cmp "$CHAOS_DIR/ctrl.log" "$CORR_DIR/dropsync.log" \
    || { echo "corruption drill: dropped-fsync cell diverged"; \
         diff "$CHAOS_DIR/ctrl.log" "$CORR_DIR/dropsync.log" | head -20; exit 1; }

echo "==> overload drill (brownout ladder + crash parity under load)"
# A dense flash crowd (5 s mean burst gap, ~5x the 4-server fleet's
# capacity) through the armed overload plane: the brownout ladder must
# shed Batch first and hold Interactive goodput at >= 90% of its
# offered load, and a crash mid-crowd must recover to the uncrashed
# control's verdict log byte for byte under the same overload flags.
OVL_DIR="$(mktemp -d)"
TMP_DIRS+=("$OVL_DIR")
OVL_FLAGS=(--queue 48 --overload --limit-max 16
           --queue-target 7200 --queue-interval 7200)
"${CLI[@]}" gen-trace --out "$OVL_DIR/crowd.swf" \
    --jobs 200 --seed 5 --burst-gap 5 > /dev/null
OVL_OUT="$("${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$OVL_DIR/crowd.swf" --servers 4 --vms 200 \
    --journal-dir "$OVL_DIR/ctrl" --checkpoint-every 16 \
    "${OVL_FLAGS[@]}" --verdicts-out "$OVL_DIR/ctrl.log")"
grep -q "conservation: ok" <<< "$OVL_OUT" \
    || { echo "overload drill: verdicts not conserved"; echo "$OVL_OUT"; exit 1; }
echo "$OVL_OUT" | awk '
    /^shed:/ {
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2 && kv[1] == "brownout-class")
                brownout = kv[2]
    }
    /^classes:/ {
        for (i = 1; i <= NF; i++)
            if (split($i, kv, "=") == 2) c[kv[1]] = kv[2]
    }
    END {
        if (brownout + 0 <= 0) {
            print "overload drill: ladder never shed (brownout-class=" brownout ")"
            exit 1
        }
        if (c["admitted-interactive"] < 0.9 * c["submitted-interactive"]) {
            print "overload drill: Interactive goodput below 90% (" \
                c["admitted-interactive"] "/" c["submitted-interactive"] ")"
            exit 1
        }
        if (c["admitted-batch"] / c["submitted-batch"] >= \
            c["admitted-interactive"] / c["submitted-interactive"]) {
            print "overload drill: Batch was not shed before Interactive"
            exit 1
        }
    }' || { echo "$OVL_OUT"; exit 1; }
"${CLI[@]}" serve --db-dir "$CHAOS_DIR/db" \
    --trace "$OVL_DIR/crowd.swf" --servers 4 --vms 200 \
    --journal-dir "$OVL_DIR/crash" --checkpoint-every 16 \
    "${OVL_FLAGS[@]}" --crash-after-events 37 > /dev/null 2>&1 || true
test -s "$OVL_DIR/crash/wal.log" \
    || { echo "overload drill: crashed run left no WAL"; exit 1; }
"${CLI[@]}" recover --db-dir "$CHAOS_DIR/db" \
    --trace "$OVL_DIR/crowd.swf" --servers 4 --vms 200 \
    --journal-dir "$OVL_DIR/crash" --checkpoint-every 16 \
    "${OVL_FLAGS[@]}" --verdicts-out "$OVL_DIR/rec.log" > /dev/null
cmp "$OVL_DIR/ctrl.log" "$OVL_DIR/rec.log" \
    || { echo "overload drill: recovered verdict log diverged"; \
         diff "$OVL_DIR/ctrl.log" "$OVL_DIR/rec.log" | head -20; exit 1; }
diff -r "$OVL_DIR/ctrl" "$OVL_DIR/crash" \
    || { echo "overload drill: recovered journal diverged"; exit 1; }

echo "==> scenario library (byte-deterministic replays)"
# Every committed scenario must check clean and produce byte-identical
# outcome CSVs across two runs (against the exact model database the
# chaos smoke already built). Any diff fails the gate — scenarios are
# replay-critical artifacts, not examples.
SCEN_DIR="$(mktemp -d)"
TMP_DIRS+=("$SCEN_DIR")
for f in scenarios/*.eavm; do
    name="$(basename "$f" .eavm)"
    "${CLI[@]}" scenario check "$f" > /dev/null \
        || { echo "scenario library: $f failed check"; exit 1; }
    "${CLI[@]}" scenario run "$f" --db-dir "$CHAOS_DIR/db" \
        --out "$SCEN_DIR/$name.1.csv" > /dev/null 2>&1 \
        || { echo "scenario library: $f failed first run"; exit 1; }
    "${CLI[@]}" scenario run "$f" --db-dir "$CHAOS_DIR/db" \
        --out "$SCEN_DIR/$name.2.csv" > /dev/null 2>&1 \
        || { echo "scenario library: $f failed second run"; exit 1; }
    cmp "$SCEN_DIR/$name.1.csv" "$SCEN_DIR/$name.2.csv" \
        || { echo "scenario library: $f is not byte-deterministic"; \
             diff "$SCEN_DIR/$name.1.csv" "$SCEN_DIR/$name.2.csv" | head -20; exit 1; }
    echo "    $name: deterministic ($(wc -l < "$SCEN_DIR/$name.1.csv") rows)"
done

echo "CI checks passed."

#!/usr/bin/env bash
# Bench regression gates against the committed baselines.
#
# Gate 1 re-runs `bench_engine` and compares it to BENCH_engine.json.
# Absolute wall-clock is environment-dependent (the baseline records its
# own host), so the gate is on *same-host relative* numbers: the
# bucket-timeline speedup over the binary-heap timeline per workload, and
# the inline-vs-spill payload ratio. Each must stay within 5% of the
# committed value (lower bound only — getting faster is not a regression).
# The `scaling` block is gated structurally: every baseline `p` row must
# still be present and complete under 60 s, and the small-`p` rows
# (p <= 10^4, which are stable) must stay within 3x of baseline — large-`p`
# wall clock swings 2-4x with host noise, so only completion is gated
# there.
#
# Gate 2 re-runs the `exp_faults` conformance matrix and compares it to
# BENCH_faults.json *exactly*: verdicts, attempts, and clean/faulted step
# counts are virtual-time quantities, so any drift is a behavior change,
# not noise. The gate is skipped with a notice when no baseline is
# committed.
#
# Gate 3 checks the committed BENCH_obs.json records a passing acceptance
# block, then re-runs `bench_obs` in a scratch directory. The committed
# wall-clock numbers belong to another host, so nothing is diffed against
# them — the binary gates *same-host relative* overheads (off/counters/
# sampled vs an uninstrumented baseline) itself and exits non-zero past
# the limits. Skipped with a notice when no baseline is committed.
#
# Gate 4 runs `lab audit` over the committed BENCH_faults.json: every row
# must respect the provable communication lower bounds (DESIGN.md §15).
# Skipped with a notice when no baseline is committed.
#
# Gate 5 checks the committed BENCH_serve.json records a passing serve
# acceptance block (concurrent-client floor, p99, error rate), then
# re-runs `bench_serve --smoke` in a scratch directory — the binary gates
# its own same-host acceptance and exits non-zero on failure. Skipped
# with a notice when no baseline is committed.
#
# Gate 6 checks the committed BENCH_sort.json records a passing sample-
# sort acceptance block (every cell sorted, cross-simulation under the
# Theorem 2 envelope), audits it through the generic `lab audit --bench`
# acceptance path, and re-runs `exp_sort --smoke` in a scratch directory —
# the binary gates its own sortedness/envelope acceptance and exits
# non-zero on failure. Skipped with a notice when no baseline is
# committed.
#
# Every gate runs, whatever an earlier one found. Each is its own
# `bash -e` child (a function exported into `bash -euo pipefail -c`), so a
# gate that fails partway stops there and never prints its PASS line, and
# the script ends with one PASS/FAIL line per gate (SKIP when the gate's
# baseline is not committed) and exits 1 if any gate failed.
#
# The committed BENCH_engine.json is restored afterwards; regenerating the
# baselines themselves is `scripts/regen_experiments.sh`'s job.
set -uo pipefail
cd "$(dirname "$0")/.."

# Scratch space for every gate, and the engine baseline gate 1 overwrites.
work=$(mktemp -d)
baseline="$work/BENCH_engine.baseline.json"
cp BENCH_engine.json "$baseline"
restore() {
    cp "$baseline" BENCH_engine.json
    rm -rf "$work"
}
trap restore EXIT
# A gate exits with SKIP when its baseline is not committed.
SKIP=3
export work baseline SKIP

# Gate 1: bench_engine against BENCH_engine.json.
gate_1() {
cargo run -q --release -p bvl-bench --bin bench_engine >/dev/null

python3 - "$baseline" <<'PY'
import json, sys

base = json.load(open(sys.argv[1]))
cur = json.load(open("BENCH_engine.json"))
TOL = 0.95  # current relative speedup must be >= 95% of baseline

fail = False
base_tl = {row["workload"]: row for row in base["timeline"]}
for row in cur["timeline"]:
    b = base_tl.get(row["workload"])
    if b is None:
        continue
    limit = b["speedup"] * TOL
    ok = row["speedup"] >= limit
    fail |= not ok
    print(f'{"PASS" if ok else "FAIL"} timeline/{row["workload"]}: '
          f'bucket speedup {row["speedup"]:.2f}x vs baseline {b["speedup"]:.2f}x '
          f'(floor {limit:.2f}x)')

def payload_ratio(doc):
    ns = {row["case"]: row["ns_per_op"] for row in doc["payload"]}
    return ns["spill_12w"] / ns["inline_6w"]

b_ratio, c_ratio = payload_ratio(base), payload_ratio(cur)
limit = b_ratio * TOL
ok = c_ratio >= limit
fail |= not ok
print(f'{"PASS" if ok else "FAIL"} payload: spill/inline ratio {c_ratio:.2f} '
      f'vs baseline {b_ratio:.2f} (floor {limit:.2f})')

if "scaling" in base:
    SMALL_P, SMALL_TOL, BUDGET_MS = 10_000, 3.0, 60_000.0
    b_rows = {row["p"]: row["ms"] for row in base["scaling"]["single_shard"]}
    c_rows = {row["p"]: row["ms"] for row in cur.get("scaling", {}).get("single_shard", [])}
    for p in sorted(b_rows):
        if p not in c_rows:
            print(f"FAIL scaling/p={p}: row missing from current run")
            fail = True
            continue
        ms = c_rows[p]
        if ms > BUDGET_MS:
            print(f"FAIL scaling/p={p}: {ms:.0f} ms exceeds the {BUDGET_MS:.0f} ms budget")
            fail = True
        elif p <= SMALL_P and ms > b_rows[p] * SMALL_TOL:
            print(f"FAIL scaling/p={p}: {ms:.2f} ms vs baseline {b_rows[p]:.2f} ms "
                  f"(ceiling {SMALL_TOL:.0f}x)")
            fail = True
        else:
            print(f"PASS scaling/p={p}: {ms:.2f} ms (baseline {b_rows[p]:.2f} ms)")

sys.exit(1 if fail else 0)
PY
echo "bench_engine regression gate: PASS (committed baseline restored)"
}

# Gate 2: the exp_faults conformance matrix against BENCH_faults.json.
gate_2() {
if [[ ! -f BENCH_faults.json ]]; then
    echo "notice: no committed BENCH_faults.json baseline; skipping fault-conformance gate"
    exit "$SKIP"
fi

# Run the full matrix in a scratch directory so the committed baseline and
# any working-tree fault-repros.txt stay untouched. `exp_faults` writes its
# JSON before exiting non-zero on failing cases, so the exact diff below
# sees verdict flips either way.
faults_work="$work/faults"
mkdir -p "$faults_work"
repo_root=$PWD
(cd "$faults_work" && \
    cargo run -q --release --manifest-path "$repo_root/Cargo.toml" \
        -p bvl-bench --bin exp_faults >/dev/null 2>&1) || true

python3 - "$faults_work/BENCH_faults.json" <<'PY'
import json, os, sys

path = sys.argv[1]
if not os.path.exists(path):
    print("FAIL faults: exp_faults produced no BENCH_faults.json")
    sys.exit(1)

base = json.load(open("BENCH_faults.json"))
cur = json.load(open(path))
key = lambda r: (r["sim"], r["p"], r["h"], r["plan"])
b = {key(r): r for r in base["rows"]}
c = {key(r): r for r in cur["rows"]}

fail = False
for k in sorted(b.keys() | c.keys()):
    name = "{}/p{}/h{}/{}".format(*k)
    if k not in c:
        print(f"FAIL faults/{name}: case missing from current run")
        fail = True
        continue
    if k not in b:
        print(f"FAIL faults/{name}: case absent from baseline")
        fail = True
        continue
    diffs = [
        f"{f} {b[k][f]} -> {c[k][f]}"
        for f in ("clean", "faulted", "attempts", "ok")
        if b[k][f] != c[k][f]
    ]
    if diffs:
        print(f"FAIL faults/{name}: " + ", ".join(diffs))
        fail = True

if fail:
    sys.exit(1)
print(f"PASS faults: {len(b)} cases bit-identical to baseline")
PY
echo "exp_faults conformance gate: PASS (exact match)"
}

# Gate 3: bench_obs overheads.
gate_3() {
if [[ ! -f BENCH_obs.json ]]; then
    echo "notice: no committed BENCH_obs.json baseline; skipping obs-overhead gate"
    exit "$SKIP"
fi

# The committed baseline must itself record a passing acceptance block —
# a red baseline should never be committable by accident.
python3 - <<'PY'
import json, sys

acc = json.load(open("BENCH_obs.json"))["acceptance"]
if not acc.get("pass", False):
    print("FAIL obs: committed BENCH_obs.json records a failing acceptance block")
    sys.exit(1)
print(f'PASS obs baseline: worst off {acc["off_overhead_worst_pct"]:+.2f}% '
      f'(limit {acc["off_overhead_limit_pct"]:.0f}%), '
      f'counters {acc["counters_overhead_worst_pct"]:+.2f}% '
      f'(limit {acc["counters_overhead_limit_pct"]:.0f}%), '
      f'sampled {acc["sampled_overhead_worst_pct"]:+.2f}% '
      f'(limit {acc["sampled_overhead_limit_pct"]:.0f}%)')
PY

# Re-run in a scratch directory so the committed baseline stays untouched.
# bench_obs gates its own same-host relative overheads and exits non-zero
# past the limits; its per-workload rows go to stderr for the log.
obs_work="$work/obs"
mkdir -p "$obs_work"
repo_root=$PWD
(cd "$obs_work" && \
    cargo run -q --release --manifest-path "$repo_root/Cargo.toml" \
        -p bvl-bench --bin bench_obs >/dev/null)
echo "bench_obs overhead gate: PASS (tiered overheads within limits on this host)"
}

# Gate 4: the communication lower-bound audit over the committed fault
# baselines (DESIGN.md §15). The bounds are theorems — delay-only faults
# can never speed a run up; the routers' clean legs pay (h-1)·G + L — so
# a baseline below them records a simulator bug, whatever it was diffed
# against. Skipped with a notice when no baseline is committed.
gate_4() {
if [[ ! -f BENCH_faults.json ]]; then
    echo "notice: no committed BENCH_faults.json baseline; skipping lower-bound audit gate"
    exit "$SKIP"
fi
cargo run -q --release -p bvl-bench --bin lab -- audit --bench BENCH_faults.json
echo "lower-bound audit gate: PASS (BENCH_faults.json respects the proven bounds)"
}

# Gate 5: the committed BENCH_serve.json must record a passing acceptance
# block — in particular ≥ its own min_concurrent_clients floor held
# simultaneously, and p99 and error rate under the recorded limits. The
# committed wall-clock numbers belong to another host, so nothing is
# diffed against them; instead `bench_serve --smoke` re-proves the front
# end on this host in a scratch directory (it gates its own same-host
# p99/error-rate acceptance and exits non-zero on failure). Skipped with a notice when no baseline is
# committed.
gate_5() {
if [[ ! -f BENCH_serve.json ]]; then
    echo "notice: no committed BENCH_serve.json baseline; skipping serve gate"
    exit "$SKIP"
fi

python3 - <<'PY'
import json, sys

doc = json.load(open("BENCH_serve.json"))
acc = doc["acceptance"]
fail = False
if not acc.get("pass", False):
    print("FAIL serve: committed BENCH_serve.json records a failing acceptance block")
    fail = True
floor = acc.get("min_concurrent_clients", 0)
held = acc.get("concurrent_clients", 0)
if held < floor:
    print(f"FAIL serve: baseline held {held} concurrent clients, floor is {floor}")
    fail = True
if fail:
    sys.exit(1)
print(f'PASS serve baseline: {held} concurrent clients (floor {floor}), '
      f'p99 {acc["p99_ms"]:.2f} ms (limit {acc["p99_limit_ms"]:.0f} ms), '
      f'error rate {acc["error_rate"]:.4f} (limit {acc["error_rate_limit"]:.4f})')
PY

serve_work="$work/serve"
mkdir -p "$serve_work"
repo_root=$PWD
(cd "$serve_work" && \
    cargo run -q --release --manifest-path "$repo_root/Cargo.toml" \
        -p bvl-bench --bin bench_serve -- --smoke >/dev/null)
echo "bench_serve gate: PASS (front end holds its smoke acceptance on this host)"
}

# Gate 6: the committed BENCH_sort.json must record a passing sample-sort
# acceptance block — every cell sorted, every cross-simulation under its
# Theorem 2 envelope, and the worst 1-optimality ratio at or above the
# recorded floor. The per-cell costs are virtual-time quantities, but the
# committed grid belongs to a fixed seed set, so nothing is diffed here;
# `lab audit --bench` re-checks the acceptance gates and `exp_sort
# --smoke` re-proves the study in a scratch directory (it self-gates
# sortedness and the envelope and exits non-zero on failure). Skipped
# with a notice when no baseline is committed.
gate_6() {
if [[ ! -f BENCH_sort.json ]]; then
    echo "notice: no committed BENCH_sort.json baseline; skipping sample-sort gate"
    exit "$SKIP"
fi

python3 - <<'PY'
import json, sys

acc = json.load(open("BENCH_sort.json"))["acceptance"]
fail = False
if not acc.get("pass", False):
    print("FAIL sort: committed BENCH_sort.json records a failing acceptance block")
    fail = True
for gate in ("sorted_ok", "envelope_ok"):
    if not acc.get(gate, False):
        print(f"FAIL sort: committed baseline has {gate} = false")
        fail = True
floor = acc.get("ratio_floor", 1.0)
worst = acc.get("worst_ratio", 0.0)
if worst < floor:
    print(f"FAIL sort: worst 1-optimality ratio {worst} below the floor {floor}")
    fail = True
if fail:
    sys.exit(1)
print(f'PASS sort baseline: {acc["cells"]} cells, all sorted, '
      f'worst ratio {worst:.2f} (floor {floor:.2f}), envelope holds')
PY

cargo run -q --release -p bvl-bench --bin lab -- audit --bench BENCH_sort.json

sort_work="$work/sort"
mkdir -p "$sort_work"
repo_root=$PWD
(cd "$sort_work" && \
    cargo run -q --release --manifest-path "$repo_root/Cargo.toml" \
        -p bvl-bench --bin exp_sort -- --smoke >/dev/null)
echo "exp_sort gate: PASS (sample-sort acceptance holds on this host)"
}

export -f gate_1 gate_2 gate_3 gate_4 gate_5 gate_6

names=(
    "1 bench_engine timeline/payload/scaling"
    "2 exp_faults conformance matrix"
    "3 bench_obs overheads"
    "4 lower-bound audit of BENCH_faults.json"
    "5 bench_serve front end"
    "6 exp_sort sample-sort acceptance"
)
verdicts=()
failed=0
for i in 1 2 3 4 5 6; do
    echo "== gate ${names[i - 1]}"
    bash -euo pipefail -c "gate_$i"
    status=$?
    case $status in
        0) verdicts+=("PASS gate ${names[i - 1]}") ;;
        "$SKIP") verdicts+=("SKIP gate ${names[i - 1]} (no committed baseline)") ;;
        *)
            verdicts+=("FAIL gate ${names[i - 1]} (exit $status)")
            failed=1
            ;;
    esac
done

echo
echo "== bench regression gates"
printf '%s\n' "${verdicts[@]}"
exit "$failed"

#!/usr/bin/env bash
# Stdout gate: "same numbers and bytes" as a check. Runs every exp_*
# release binary in a scratch directory and fails when
#   * a binary exits non-zero,
#   * a binary has no block in EXPERIMENTS.md's "Raw outputs" appendix,
#   * its stdout differs by a byte from that block, or
#   * the BENCH_sort.json / BENCH_faults.json that exp_sort / exp_faults
#     write into the scratch directory differ from the committed files.
#
# Run from the repository root after building the binaries:
#
#   cargo build --release -p bvl-bench --bins
#   scripts/check_exp_stdout.sh
#
# BIN_DIR overrides the binary directory (default target/release). A
# deliberate output change regenerates the appendix and both files with
# scripts/regen_experiments.sh.
set -euo pipefail

root=$(pwd)
bin=${BIN_DIR:-$root/target/release}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Split the appendix into one expected-stdout file per binary, then check
# that its blocks and the exp_* binaries are the same set.
python3 - "$root/EXPERIMENTS.md" "$work" <<'PY'
import pathlib, re, sys
text = pathlib.Path(sys.argv[1]).read_text()
work = pathlib.Path(sys.argv[2])
appendix = text.split("\n## Raw outputs\n", 1)[1]
blocks = re.findall(r"^### Output: (exp_\w+)\n```\n(.*?)^```$", appendix, re.M | re.S)
for name, body in blocks:
    (work / f"{name}.want").write_text(body)
names = sorted(name for name, _ in blocks)
bins = sorted(p.stem for p in pathlib.Path("crates/bench/src/bin").glob("exp_*.rs"))
if names != bins:
    sys.exit(f"FAIL appendix blocks {names} != exp_* binaries {bins}")
(work / "names").write_text("\n".join(names) + "\n")
PY

fail=0
while read -r name; do
  if ! (cd "$work" && env -u BVL_LAB_DIR "$bin/$name" > "$name.out" 2> "$name.err"); then
    echo "FAIL $name: exited non-zero"
    tail -n 5 "$work/$name.err"
    fail=1
  elif cmp -s "$work/$name.want" "$work/$name.out"; then
    echo "ok   $name"
  else
    echo "FAIL $name: stdout differs from its EXPERIMENTS.md block"
    diff -u "$work/$name.want" "$work/$name.out" | head -n 20 || true
    fail=1
  fi
done < "$work/names"

for f in BENCH_sort.json BENCH_faults.json; do
  if cmp -s "$root/$f" "$work/$f"; then
    echo "ok   $f"
  else
    echo "FAIL $f: the file the run wrote differs from the committed one"
    diff -u "$root/$f" "$work/$f" | head -n 20 || true
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "stdout gate: FAIL"
  exit 1
fi
echo "stdout gate: PASS"

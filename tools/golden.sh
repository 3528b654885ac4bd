#!/bin/sh
# Pins the stdout of every deterministic bench and every example.
#
# Usage:
#   tools/golden.sh check <binary> <golden.txt>
#       Runs <binary> with no arguments in a fresh scratch directory (the
#       examples write their output files into the cwd) and compares its
#       stdout byte for byte with <golden.txt>.  Prints the diff and exits
#       non-zero on any difference.  CTest runs this as the `golden` label:
#       `ctest --test-dir build -L golden`.
#   tools/golden.sh regen <build-dir>
#       Re-records tests/golden/<name>.txt from every <build-dir>/bench/bench_*
#       (except bench_micro_engine, which times wall clock) and every
#       executable in <build-dir>/examples.  A change that moves a number
#       then shows the move as a diff under tests/golden/.
set -eu

run_in_scratch() {  # <binary> <stdout-file>
  bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
  out=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
  scratch=$(mktemp -d)
  status=0
  (cd "$scratch" && "$bin" > "$out") || status=$?
  rm -rf "$scratch"
  return $status
}

case "${1:-}" in
  check)
    [ $# -eq 3 ] || { echo "usage: $0 check <binary> <golden.txt>" >&2; exit 2; }
    actual=$(mktemp)
    trap 'rm -f "$actual"' EXIT
    if ! run_in_scratch "$2" "$actual"; then
      echo "$(basename "$2") exited non-zero" >&2
      exit 1
    fi
    if ! cmp -s "$3" "$actual"; then
      echo "$(basename "$2"): stdout differs from $3" >&2
      diff "$3" "$actual" >&2 || true
      exit 1
    fi
    ;;
  regen)
    [ $# -eq 2 ] || { echo "usage: $0 regen <build-dir>" >&2; exit 2; }
    golden=$(cd "$(dirname "$0")/.." && pwd)/tests/golden
    mkdir -p "$golden"
    for b in "$2"/bench/bench_* "$2"/examples/*; do
      [ -f "$b" ] && [ -x "$b" ] || continue
      name=$(basename "$b")
      [ "$name" = bench_micro_engine ] && continue
      echo "== $name"
      run_in_scratch "$b" "$golden/$name.txt"
    done
    ;;
  *)
    echo "usage: $0 check <binary> <golden.txt> | regen <build-dir>" >&2
    exit 2
    ;;
esac

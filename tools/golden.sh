#!/bin/sh
# Pins the stdout of every deterministic bench and every example, plus the
# files some of them write.
#
# Usage:
#   tools/golden.sh check <binary> <golden.txt>
#       Runs <binary> with no arguments in a fresh scratch directory (the
#       examples write their output files into the cwd) and compares its
#       stdout byte for byte with <golden.txt>.  Every sidecar next to the
#       golden, tests/golden/<binary>.* other than the .txt (for example
#       observe_now.metrics.json), is compared byte for byte with the file
#       of that name the binary wrote in its scratch directory.  Prints the
#       diff and exits non-zero on any difference.  CTest runs this as the
#       `golden` label: `ctest --test-dir build -L golden`.
#   tools/golden.sh regen <build-dir>
#       Re-records tests/golden/<name>.txt from every <build-dir>/bench/bench_*
#       (except bench_micro_engine, which times wall clock) and every
#       executable in <build-dir>/examples, and refreshes every sidecar that
#       already exists.  A change that moves a number then shows the move as
#       a diff under tests/golden/.  To pin a new output file, copy it into
#       tests/golden/ once; regen keeps it current from then on.
set -eu

scratch=
cleanup() { [ -z "$scratch" ] || rm -rf "$scratch"; }
trap cleanup EXIT

run_in_scratch() {  # <binary> <stdout-file>; leaves $scratch for the caller
  bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
  out=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
  cleanup
  scratch=$(mktemp -d)
  (cd "$scratch" && "$bin" > "$out")
}

sidecars() {  # <golden-dir> <name>: every pinned file but the stdout golden
  for f in "$1/$2".*; do
    [ -f "$f" ] && [ "$f" != "$1/$2.txt" ] && echo "$f"
  done
  return 0
}

case "${1:-}" in
  check)
    [ $# -eq 3 ] || { echo "usage: $0 check <binary> <golden.txt>" >&2; exit 2; }
    actual=$(mktemp)
    trap 'rm -f "$actual"; cleanup' EXIT
    if ! run_in_scratch "$2" "$actual"; then
      echo "$(basename "$2") exited non-zero" >&2
      exit 1
    fi
    status=0
    if ! cmp -s "$3" "$actual"; then
      echo "$(basename "$2"): stdout differs from $3" >&2
      diff "$3" "$actual" >&2 || true
      status=1
    fi
    for pinned in $(sidecars "$(dirname "$3")" "$(basename "$2")"); do
      written="$scratch/$(basename "$pinned")"
      if [ ! -f "$written" ]; then
        echo "$(basename "$2") did not write $(basename "$pinned")" >&2
        status=1
      elif ! cmp -s "$pinned" "$written"; then
        echo "$(basename "$2"): $(basename "$pinned") differs from $pinned" >&2
        diff "$pinned" "$written" >&2 || true
        status=1
      fi
    done
    exit $status
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
      for pinned in $(sidecars "$golden" "$name"); do
        cp "$scratch/$(basename "$pinned")" "$pinned"
      done
    done
    ;;
  *)
    echo "usage: $0 check <binary> <golden.txt> | regen <build-dir>" >&2
    exit 2
    ;;
esac

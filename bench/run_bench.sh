#!/usr/bin/env sh
# Runs a JSON-emitting microbench and records the repo's perf trajectory in
# BENCH_<name>.json at the repo root (one JSON object per line). The
# registered benches double as correctness gates — bench_shuffle exits
# non-zero on any bucketed-vs-legacy mismatch, bench_cache on any
# cached-vs-uncached output divergence — so a published BENCH file always
# reflects a run whose outputs checked out.
#
# Usage: bench/run_bench.sh [path/to/bench_binary [extra bench flags...]]
# With no arguments, runs every registered bench from ./build/bench.
set -eu

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

run_one() {
  bench_bin="$1"
  shift
  if [ ! -x "$bench_bin" ]; then
    name="$(basename "$bench_bin")"
    echo "$name not found at $bench_bin — build it first:" >&2
    echo "  cmake --build build --target $name" >&2
    exit 1
  fi
  suffix="$(basename "$bench_bin")"
  suffix="${suffix#bench_}"
  out="$repo_root/BENCH_${suffix}.json"
  tmp="$out.tmp.$$"
  # POSIX sh has no pipefail, so `bench | tee` would swallow a bench failure
  # and leave a silently-truncated BENCH file. Write to a temp file, check
  # the bench's own exit status, and only then publish.
  "$bench_bin" "$@" > "$tmp" || {
    status=$?
    rm -f "$tmp"
    echo "$(basename "$bench_bin") failed (exit $status); $out left untouched" >&2
    exit "$status"
  }
  mv "$tmp" "$out"
  cat "$out"
  echo "wrote $out" >&2
}

if [ $# -eq 0 ]; then
  run_one "$repo_root/build/bench/bench_shuffle"
  run_one "$repo_root/build/bench/bench_cache"
  run_one "$repo_root/build/bench/bench_serve"
  run_one "$repo_root/build/bench/bench_simd"
  run_one "$repo_root/build/bench/bench_coldstart"
  run_one "$repo_root/build/bench/bench_ingest"
else
  run_one "$@"
fi

#!/bin/bash
# The one benchmark command. Builds the harness (against offline-stubs when
# the repository carries them, like scripts/offline-cargo.sh), then runs it.
#
#   benchmark/run.sh [--seed N] [--out FILE] [--seconds S] [--smoke]
#       every workload, untraced pass then traced pass; prints every metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one JSON result as the last line (what BENCHMARK.json runs)
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh selfcheck [--seed N] [--seconds S]
#
# BENCH_NETWORKED=1 builds against crates.io instead of the stubs.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")

target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

rand_kind=crates-io
if [ -d "$root/offline-stubs" ] && [ -z "${BENCH_NETWORKED:-}" ]; then
  rand_kind=stub
fi

# Stub resolution pins versions that do not exist on crates.io, so the lock
# it writes stays private: swap it in for the build, then back out, and
# restore whatever networked lock was there. The build runs in a subshell
# whose exit trap does the restoring exactly once, however it ends.
build() (
  stub_flags=()
  if [ "$rand_kind" = stub ]; then
    offline_lock=$here/Cargo.offline.lock
    saved_lock=
    stub_flags=(--offline
      --config 'source.crates-io.replace-with="offline-stubs"'
      --config "source.offline-stubs.directory=\"$root/offline-stubs\"")
    if [ -f "$here/Cargo.lock" ]; then
      saved_lock=$(mktemp "$here/Cargo.lock.networked.XXXXXX")
      mv -f "$here/Cargo.lock" "$saved_lock"
    fi
    if [ -f "$offline_lock" ]; then
      cp -f "$offline_lock" "$here/Cargo.lock"
    fi
    restore_locks() {
      status=$?
      trap - EXIT INT TERM
      if [ -f "$here/Cargo.lock" ]; then
        mv -f "$here/Cargo.lock" "$offline_lock"
      fi
      if [ -n "$saved_lock" ] && [ -f "$saved_lock" ]; then
        mv -f "$saved_lock" "$here/Cargo.lock"
      fi
      exit "$status"
    }
    trap restore_locks EXIT INT TERM
  fi
  # Build chatter goes to stderr: the last line of stdout is the result.
  cargo "${stub_flags[@]}" build --release --manifest-path "$here/Cargo.toml" >&2
)
build

# Facts about the build the binary cannot see for itself.
export PPRL_BENCH_RAND=$rand_kind
PPRL_BENCH_RUSTC=$(rustc -V 2>/dev/null || echo unknown)
PPRL_BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export PPRL_BENCH_RUSTC PPRL_BENCH_COMMIT
export PPRL_BENCH_SCRATCH=$target/bench-scratch

bin=$target/release/pprl-benchmark
case "${1:-}" in
  compare | selfcheck) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = --workload ]; then
    exec "$bin" run "$@"
  fi
done
exec "$bin" all "$@"

#!/usr/bin/env bash
# Bounds what the shard store holds at once: streaming the full-scale
# 2015 campaign into 16 shards, and scanning that store for the headline
# report, must each peak within a fixed allowance of the largest shard
# file, because the writer holds one block and the scan one shard
# (DESIGN.md §5j). The peak is the child's ru_maxrss, read by Python.
#
# A sanitizer's shadow memory and quarantine would count against the
# allowance, so the test is registered for uninstrumented builds only.
#
# Usage: tools/shard_peak_rss_test.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
tokyonet="${build_dir}/tools/tokyonet"

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Runs "$@" with stdout discarded and prints its peak RSS in MB (1e6
# bytes); fails with the command's exit code.
peak_mb() {
  python3 -c '
import resource, subprocess, sys
rc = subprocess.run(sys.argv[1:], stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL).returncode
if rc != 0:
    sys.exit(rc)
kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print("%.1f" % (kib * 1024 / 1e6))
' "$@"
}

# 24 MB sits between the 7-13 MB over the 18.8 MB largest shard file
# that one resident block or shard costs and the 26-32 MB of a writer or
# a scan that holds two (EXPERIMENTS.md "One shard at a time").
allowance_mb=24
store="${tmp}/store"
write_mb="$(peak_mb env TOKYONET_THREADS=4 "${tokyonet}" snapshot shard \
    --year 2015 --scale 1 --shards 16 --out "${store}")"
scan_mb="$(peak_mb env TOKYONET_THREADS=4 "${tokyonet}" report \
    --shard-dir "${store}")"
shard_bytes="$(stat -c %s "${store}"/shard-*.tksnap | sort -n | tail -n 1)"

status=0
for row in "snapshot shard:${write_mb}" "report --shard-dir:${scan_mb}"; do
  what="${row%%:*}"
  peak="${row##*:}"
  if ! awk -v p="${peak}" -v f="${shard_bytes}" -v a="${allowance_mb}" \
      'BEGIN { exit !(p * 1e6 < f + a * 1e6) }'; then
    echo "FAIL: ${what} peaked at ${peak} MB; the largest shard file is" \
         "${shard_bytes} bytes, want under it + ${allowance_mb} MB" >&2
    status=1
  else
    echo "PASS: ${what} peak ${peak} MB"
  fi
done
echo "largest shard file $(( shard_bytes / 1000000 )) MB"
exit "${status}"

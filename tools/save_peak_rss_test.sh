#!/usr/bin/env bash
# Bounds the simulator's transient memory: saving the full-scale 2015
# campaign at 4 threads must peak within a fixed allowance of the file
# it writes (the file is the campaign's columns), because simulating
# holds one copy of the campaign's app records. `snapshot save` prints
# the process's peak RSS on its summary line.
#
# A sanitizer's shadow memory and quarantine would count against the
# allowance, so the test is registered for uninstrumented builds only.
#
# Usage: tools/save_peak_rss_test.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
tokyonet="${build_dir}/tools/tokyonet"

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# 32 MB sits between the ~12 MB over the 257 MB file that one copy of
# the app records costs and the ~72 MB of a simulator that kept every
# device's records until the end (EXPERIMENTS.md "One copy of the app
# records").
allowance_mb=32
saved="$(TOKYONET_THREADS=4 "${tokyonet}" snapshot save --year 2015 \
    --scale 1 --out "${tmp}/c2015.tksnap")"
peak_mb="$(echo "${saved}" | sed -n 's/.*(peak RSS \([0-9.]*\) MB)$/\1/p')"
file_bytes="$(stat -c %s "${tmp}/c2015.tksnap")"
if [ -z "${peak_mb}" ] || ! awk -v p="${peak_mb}" -v f="${file_bytes}" \
    -v a="${allowance_mb}" 'BEGIN { exit !(p * 1e6 < f + a * 1e6) }'; then
  echo "FAIL: snapshot save peaked at '${peak_mb}' MB for a ${file_bytes}" \
       "byte file, want under the file + ${allowance_mb} MB" >&2
  exit 1
fi
echo "PASS: snapshot save peak ${peak_mb} MB, file" \
     "$(( file_bytes / 1000000 )) MB"

#!/usr/bin/env bash
# Asserts the tokyonet CLI's documented exit-code contract:
#   0 success, 2 bad usage / malformed flags, 3 load/IO failure,
#   4 verification failure.
#
# Usage: tools/cli_smoke_test.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
tokyonet="${build_dir}/tools/tokyonet"

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

expect() {
  local want="$1"
  shift
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [ "${got}" != "${want}" ]; then
    echo "FAIL: '$*' exited ${got}, want ${want}" >&2
    exit 1
  fi
  echo "ok (exit ${want}): $*"
}

# 0: success paths (tiny scale keeps this fast).
expect 0 "${tokyonet}" fig list
expect 0 "${tokyonet}" fig run table01 --year 2015 --scale 0.02 --format json

# 2: bad usage and malformed flags (strict numeric parsing).
expect 2 "${tokyonet}" bogus-command
expect 2 "${tokyonet}" fig run table01 --year 20x5
expect 2 "${tokyonet}" report --year 2015 --scale abc
expect 2 "${tokyonet}" fig run table01 --year 2015 --seed -3
expect 2 "${tokyonet}" fig run no_such_figure
expect 2 "${tokyonet}" fig run fig01 --year 2015  # longitudinal: no --year
expect 2 "${tokyonet}" fig run table01 --year 2015 --format yaml
expect 2 "${tokyonet}" report --year 2020

# 2: a count outside its range is a usage error, never clamped into it.
# The ingest shard cap (1..256) is checked while parsing, before the
# server sets up its shards. --queue is gone: an unknown flag.
expect 2 "${tokyonet}" ingest stats --year 2015 --scale 0.02 --batch 0
expect 2 "${tokyonet}" ingest stats --year 2015 --scale 0.02 --shards 0
expect 2 "${tokyonet}" ingest stats --year 2015 --scale 0.02 --shards 257
expect 2 "${tokyonet}" ingest stats --year 2015 --scale 0.02 --queue 4
expect 2 "${tokyonet}" snapshot shard --year 2015 --scale 0.02 \
    --out "${tmp}/negative" --shards -1
expect 2 "${tokyonet}" ingest serve --port 70000  # not wrapped to 4464
rejection="$("${tokyonet}" ingest stats --year 2015 --batch 0 2>&1 || true)"
echo "${rejection}" | grep -q -- "--batch must be at least 1" || {
  echo "FAIL: an out-of-range count must name its flag" >&2; exit 1; }
echo "ok: an out-of-range count names its flag"

# 3: missing inputs.
expect 3 "${tokyonet}" report --in "${tmp}/no-such-dir"
expect 3 "${tokyonet}" snapshot load --in "${tmp}/missing.snap"

# 3: a snapshot another format version wrote (version field set to 1).
expect 0 "${tokyonet}" snapshot save --year 2015 --scale 0.02 \
    --out "${tmp}/v1.tksnap"
printf '\001' | dd of="${tmp}/v1.tksnap" bs=1 seek=8 conv=notrunc 2>/dev/null
expect 3 "${tokyonet}" snapshot load --in "${tmp}/v1.tksnap"
# 4: verification failures.
echo "this is not a snapshot" > "${tmp}/corrupt.snap"
expect 4 "${tokyonet}" snapshot load --in "${tmp}/corrupt.snap"
mkdir "${tmp}/empty-goldens"
expect 4 "${tokyonet}" fig all --check-goldens --goldens "${tmp}/empty-goldens"

# Shard stores follow the same contract (DESIGN.md §5i): stream a tiny
# store, verify it, then corrupt it and watch info/report/fig fail
# with 4 (present but broken) vs 3 (missing entirely).
expect 0 "${tokyonet}" snapshot shard --year 2015 --scale 0.02 \
    --out "${tmp}/shards" --shards 2
expect 0 "${tokyonet}" snapshot info --in "${tmp}/shards"
expect 0 "${tokyonet}" report --shard-dir "${tmp}/shards"
# A store is always scanned: there is no flag that selects another way
# to read it.
expect 2 "${tokyonet}" report --out-of-core  # unknown flag
expect 2 "${tokyonet}" fig run table01 --out-of-core  # unknown flag

# Scanning a store reports exactly what simulating the same campaign
# reports: same header, same tables, byte for byte.
"${tokyonet}" report --year 2015 --scale 0.02 > "${tmp}/report-memory.txt"
"${tokyonet}" report --shard-dir "${tmp}/shards" > "${tmp}/report-store.txt"
if ! cmp -s "${tmp}/report-memory.txt" "${tmp}/report-store.txt"; then
  echo "FAIL: report --shard-dir differs from report --year:" >&2
  diff "${tmp}/report-memory.txt" "${tmp}/report-store.txt" >&2 || true
  exit 1
fi
echo "ok: report --shard-dir == report --year, byte for byte"

# Figure rendering over a store: every per-year figure works (the Fig 6
# ratio scan included), and a longitudinal figure is rejected with 2 (it
# spans several campaigns; a store holds one).
expect 0 "${tokyonet}" fig run table01 --shard-dir "${tmp}/shards"
expect 0 "${tokyonet}" fig run fig12 --shard-dir "${tmp}/shards"
# A scan holds one shard and takes no residency count: --resident-shards
# is an unknown flag.
expect 2 "${tokyonet}" fig run fig12 --shard-dir "${tmp}/shards" \
    --resident-shards 2
expect 0 "${tokyonet}" fig run fig06 --shard-dir "${tmp}/shards"
expect 2 "${tokyonet}" fig run table03 --shard-dir "${tmp}/shards"
rejection="$("${tokyonet}" fig run table03 --shard-dir "${tmp}/shards" \
    2>&1 || true)"
if ! echo "${rejection}" | grep -q "longitudinal"; then
  echo "FAIL: rejected store run must say the figure is longitudinal" >&2
  exit 1
fi
echo "ok: longitudinal rejection names the reason"

# `fig list` carries the ooc column: every per-year figure (the Fig 6
# ratio scan and the ablations included) runs out of core, the
# longitudinal fig01 does not.
list="$("${tokyonet}" fig list)"
echo "${list}" | grep -q " ooc " || {
  echo "FAIL: fig list is missing the ooc column" >&2; exit 1; }
for id in table01 fig06 ablate_rssi_cutoff; do
  echo "${list}" | grep "^${id} " | grep -q " yes " || {
    echo "FAIL: ${id} must be marked ooc=yes" >&2; exit 1; }
done
echo "${list}" | grep "^fig01 " | grep -q " longitudinal  *- " || {
  echo "FAIL: fig01 must be marked ooc=-" >&2; exit 1; }
echo "ok: fig list ooc column pins the out-of-core catalog"

expect 3 "${tokyonet}" snapshot info --in "${tmp}/no-such-store"
expect 3 "${tokyonet}" report --shard-dir "${tmp}/no-such-store"
# A shard truncated, or replaced by the same shard of another
# campaign, after the store was written fails verification with 4.
expect 0 "${tokyonet}" snapshot shard --year 2015 --scale 0.02 --seed 7 \
    --out "${tmp}/other" --shards 2
cp -r "${tmp}/shards" "${tmp}/swapped"
cp "${tmp}/other/shard-0001.tksnap" "${tmp}/swapped/shard-0001.tksnap"
expect 4 "${tokyonet}" fig run table01 --shard-dir "${tmp}/swapped"
cp -r "${tmp}/shards" "${tmp}/truncated"
truncate -s 4096 "${tmp}/truncated/shard-0001.tksnap"
expect 4 "${tokyonet}" fig run table01 --shard-dir "${tmp}/truncated"
# A payload byte flipped in shard-0001 fails the first store pass that
# loads it: report exits 4 and writes nothing to stdout, not the header
# and the tables rendered before that pass.
cp -r "${tmp}/shards" "${tmp}/flipped"
flip="${tmp}/flipped/shard-0001.tksnap"
at=$(( $(stat -c %s "${flip}") - 1 ))
byte=$(od -An -tu1 -j "${at}" -N1 "${flip}" | tr -d ' ')
printf "\\$(printf '%03o' $(( byte ^ 0x5A )))" |
  dd of="${flip}" bs=1 seek="${at}" conv=notrunc 2>/dev/null
got=0
"${tokyonet}" report --shard-dir "${tmp}/flipped" > "${tmp}/flipped.txt" \
    2>/dev/null || got=$?
if [ "${got}" != 4 ] || [ -s "${tmp}/flipped.txt" ]; then
  echo "FAIL: report over a corrupt shard exited ${got} and printed" \
       "$(wc -c < "${tmp}/flipped.txt") bytes, want exit 4 and none" >&2
  exit 1
fi
echo "ok (exit 4): report over a corrupt shard prints nothing"
rm "${tmp}/shards/shard-0001.tksnap"
expect 4 "${tokyonet}" snapshot info --in "${tmp}/shards"
expect 4 "${tokyonet}" report --shard-dir "${tmp}/shards"
expect 4 "${tokyonet}" fig run table01 --shard-dir "${tmp}/shards"

# Ingest: a loopback replay into a 4-shard server commits every record,
# and the kernels' result over the committed batches is byte-identical
# to their result over the campaign (exit 4 otherwise).
expect 0 "${tokyonet}" ingest stats --year 2015 --scale 0.02 --shards 4
stats="$("${tokyonet}" ingest stats --year 2015 --scale 0.02 --shards 4)"
echo "${stats}" | grep -q "verify:   ingest == batch" || {
  echo "FAIL: ingest stats must print 'verify:   ingest == batch'" >&2
  exit 1; }
echo "ok: ingest stats verifies ingest == batch"
# Shed mode drops only batches that find their shard paused; nothing
# pauses a loopback run, so it sheds nothing and still verifies.
expect 0 "${tokyonet}" ingest stats --year 2015 --scale 0.02 --shards 4 --shed
shed="$("${tokyonet}" ingest stats --year 2015 --scale 0.02 --shards 4 --shed)"
echo "${shed}" | grep -q "verify:   ingest == batch" || {
  echo "FAIL: ingest stats --shed must print 'verify:   ingest == batch'" >&2
  exit 1; }
echo "ok: ingest stats --shed sheds nothing and verifies ingest == batch"

# 3: a CSV field its column cannot hold (battery 356 in the first
# samples.csv row) is a malformed row, not a narrowed value.
expect 0 "${tokyonet}" simulate --year 2015 --scale 0.02 --out "${tmp}/csv"
awk -F, -v OFS=, 'NR == 2 { $12 = 356 } { print }' "${tmp}/csv/samples.csv" \
    > "${tmp}/csv/samples.edited" &&
  mv "${tmp}/csv/samples.edited" "${tmp}/csv/samples.csv"
expect 3 "${tokyonet}" report --in "${tmp}/csv"

echo "PASS: exit-code contract holds"

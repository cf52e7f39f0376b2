#!/usr/bin/env bash
# End-to-end smoke test of the on-disk campaign cache, through the CLI:
# `tokyonet snapshot warm` fills a throwaway TOKYONET_CACHE_DIR at a
# tiny scale (every campaign must miss), then `tokyonet fig all` at the
# same scale must be served entirely from it (at least one hit, zero
# misses). A corrupt entry is repaired by `warm` (exit 0, a note, then
# all hits); a cache dir that cannot be written leaves `warm` at exit 3.
#
# Usage: tools/cache_smoke_test.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
tokyonet="${build_dir}/tools/tokyonet"

cache_dir="$(mktemp -d)"
trap 'rm -rf "${cache_dir}"' EXIT
export TOKYONET_CACHE_DIR="${cache_dir}"

# Tiny panels: the point is the cache plumbing, not the numbers.
scale=0.02

count() {  # count <hit|miss> <output>
  echo "$2" | grep -c "^tokyonet-cache: $1 " || true
}

echo "== cold run (populates ${cache_dir}) =="
out1="$("${tokyonet}" snapshot warm --scale "${scale}")"
echo "${out1}" | grep '^tokyonet-cache: ' || true
if [ "$(count miss "${out1}")" = "0" ] || [ "$(count hit "${out1}")" != "0" ]; then
  echo "FAIL: cold run expected only cache misses" >&2
  exit 1
fi

echo "== warm run (must be all hits) =="
out2="$("${tokyonet}" fig all --scale "${scale}" --format json)"
echo "${out2}" | grep '^tokyonet-cache: ' || true
hits="$(count hit "${out2}")"
misses="$(count miss "${out2}")"
if [ "${misses}" != "0" ] || [ "${hits}" = "0" ]; then
  echo "FAIL: warm run expected all cache hits, got ${hits} hits," \
       "${misses} misses" >&2
  exit 1
fi
echo "ok: warm run served ${hits} campaigns from the cache, 0 misses"

echo "== a corrupt entry is re-simulated and saved again (exit 0) =="
entry="$(ls "${cache_dir}"/campaign-*.tksnap | head -n 1)"
at=$(( $(stat -c %s "${entry}") - 1 ))
byte=$(od -An -tu1 -j "${at}" -N1 "${entry}" | tr -d ' ')
printf "\\$(printf '%03o' $(( byte ^ 0x5A )))" |
  dd of="${entry}" bs=1 seek="${at}" conv=notrunc 2>/dev/null
rc=0
out3="$("${tokyonet}" snapshot warm --scale "${scale}" 2>&1)" || rc=$?
echo "${out3}" | grep '^tokyonet-cache: ' || true
if [ "${rc}" != 0 ] || ! echo "${out3}" | grep -q "re-simulating" ||
   [ "$(count miss "${out3}")" != 1 ]; then
  echo "FAIL: repairing a corrupt entry exited ${rc}, want 0 with a note" \
       "and one miss" >&2
  exit 1
fi
out4="$("${tokyonet}" snapshot warm --scale "${scale}")"
if [ "$(count hit "${out4}")" != 3 ]; then
  echo "FAIL: after the repair, warm expected 3 hits" >&2
  exit 1
fi
echo "ok: a corrupt entry was repaired (exit 0), then 3 hits"

echo "== a cache dir that cannot be created stays cold (exit 3) =="
touch "${cache_dir}/not-a-dir"
rc=0
TOKYONET_CACHE_DIR="${cache_dir}/not-a-dir/cache" \
  "${tokyonet}" snapshot warm --scale "${scale}" >/dev/null 2>&1 || rc=$?
if [ "${rc}" != 3 ]; then
  echo "FAIL: warm into an unwritable cache dir exited ${rc}, want 3" >&2
  exit 1
fi
echo "ok: an unwritable cache dir exits 3"
echo "PASS: campaign cache smoke test"

#!/usr/bin/env bash
# End-to-end smoke test of the on-disk campaign cache, through the CLI:
# `tokyonet snapshot warm` fills a throwaway TOKYONET_CACHE_DIR at a
# tiny scale (every campaign must miss), then `tokyonet fig all` at the
# same scale must be served entirely from it (at least one hit, zero
# misses).
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
echo "PASS: warm run served ${hits} campaigns from the cache, 0 misses"

#!/usr/bin/env bash
# benchdiff.sh — compare two bench.sh JSON records and fail on
# regression: any shared benchmark whose ns/op grew by more than 10% or
# whose allocs/op increased at all.
#
#   scripts/benchdiff.sh OLD.json NEW.json
#   scripts/benchdiff.sh                 # the two newest BENCH_*.json by
#                                        # their "date" field (newest =
#                                        # "new", runner-up = "old")
#   scripts/benchdiff.sh --if-baseline   # soft mode for make check: exit 0
#                                        # with a note when no comparable
#                                        # baseline pair exists yet
#
# Records are comparable only when both carry a "gomaxprocs" field and
# the values match — a 4-core baseline against a 1-core run measures the
# machine, not the code. Smoke records ("smoke": true, 1-iteration noise)
# are refused outright. Incomparability is an error (exit 2) except in
# soft mode; real regressions fail (exit 1) in every mode.
set -euo pipefail
cd "$(dirname "$0")/.."

SOFT=0
ARGS=()
for a in "$@"; do
  case "$a" in
    --if-baseline) SOFT=1 ;;
    -h|--help) sed -n '2,18p' "$0"; exit 0 ;;
    *) ARGS+=("$a") ;;
  esac
done

skip() {
  if [[ $SOFT -eq 1 ]]; then
    echo "benchdiff: skipped ($1)"
    exit 0
  fi
  echo "benchdiff: $1" >&2
  exit 2
}

if [[ ${#ARGS[@]} -eq 2 ]]; then
  OLD="${ARGS[0]}"
  NEW="${ARGS[1]}"
  [[ -r "$OLD" && -r "$NEW" ]] || skip "cannot read $OLD / $NEW"
elif [[ ${#ARGS[@]} -eq 0 ]]; then
  # Order by each record's own "date", not by file mtime: a git
  # checkout stamps every file with the checkout time.
  FILES=()
  while IFS= read -r f; do FILES+=("$f"); done < <(
    for f in BENCH_*.json; do
      [[ -e "$f" ]] || continue
      d=$(sed -n 's/^ *"date": *"\([^"]*\)".*/\1/p' "$f" | head -n 1)
      secs=0
      [[ -z "$d" ]] || secs=$(date -d "$d" +%s 2>/dev/null) || secs=0
      printf '%s\t%s\n' "$secs" "$f"
    done | sort -k1,1nr -k2,2r | cut -f2-)
  [[ ${#FILES[@]} -ge 2 ]] || skip "need two BENCH_*.json records, have ${#FILES[@]}"
  NEW="${FILES[0]}"
  OLD="${FILES[1]}"
else
  echo "usage: benchdiff.sh [--if-baseline] [old.json new.json]" >&2
  exit 2
fi

echo "benchdiff: $OLD -> $NEW"
awk -v soft="$SOFT" '
# bench.sh emits one benchmark object per line and scalar fields on
# their own lines, so line-wise extraction is exact for our own records.
function num(key,   s) {
  if (match($0, "\"" key "\": *-?[0-9.]+")) {
    s = substr($0, RSTART, RLENGTH)
    sub(/.*: */, "", s)
    return s
  }
  return "?"
}
FNR == 1 { fi++ }
/"smoke": *true/ { smoke[fi] = 1 }
/"gomaxprocs":/ { gmp[fi] = num("gomaxprocs") }
/"name":/ {
  match($0, /"name": *"[^"]+"/)
  name = substr($0, RSTART, RLENGTH)
  sub(/.*: *"/, "", name); sub(/"$/, "", name)
  ns[fi, name] = num("ns_per_op")
  al[fi, name] = num("allocs_per_op")
  if (fi == 1) names[name] = 1
}
END {
  if (smoke[1] || smoke[2]) fatal = "refusing smoke records (1-iteration noise)"
  else if (!(1 in gmp) || !(2 in gmp)) fatal = "record lacks gomaxprocs (pre-parallel format); not comparable"
  else if (gmp[1] != gmp[2]) fatal = "gomaxprocs differ (" gmp[1] " vs " gmp[2] "); runs not comparable"
  if (fatal != "") {
    if (soft) { print "benchdiff: skipped (" fatal ")"; exit 0 }
    print "benchdiff: " fatal > "/dev/stderr"
    exit 2
  }
  bad = 0; compared = 0
  for (name in names) {
    if (!((2, name) in ns)) continue
    compared++
    o = ns[1, name] + 0; n = ns[2, name] + 0
    delta = (o > 0) ? 100 * (n - o) / o : 0
    verdict = "ok"
    if (n > o * 1.10) { verdict = "REGRESSION ns/op"; bad++ }
    if (al[1, name] != "?" && al[2, name] != "?" && al[2, name] + 0 > al[1, name] + 0) {
      verdict = (verdict == "ok") ? "REGRESSION allocs/op" : verdict " + allocs/op"
      bad++
    }
    printf "  %-60s %12.0f -> %12.0f ns/op  %+6.1f%%  allocs %s -> %s  %s\n",
      name, o, n, delta, al[1, name], al[2, name], verdict
  }
  if (compared == 0) {
    msg = "no shared benchmarks between records"
    if (soft) { print "benchdiff: skipped (" msg ")"; exit 0 }
    print "benchdiff: " msg > "/dev/stderr"
    exit 2
  }
  if (bad) {
    printf "benchdiff: FAIL (%d regression(s) across %d shared benchmarks)\n", bad, compared
    exit 1
  }
  printf "benchdiff: ok (%d shared benchmarks within bounds)\n", compared
}
' "$OLD" "$NEW"

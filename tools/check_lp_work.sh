#!/bin/sh
# LP work gate: the simplex's exact work on one fixed solve.
#
# `apple solve -t internet2` is deterministic, and so are its LP
# counters: the pivots, the phase-1 pivots among them, and the reduced
# costs priced.  tools/lp_work.txt commits all three, and any difference
# fails here: a pricing rule that takes more pivots, or a pricing pass
# that recomputes every reduced cost on each pivot again, moves one of
# them.
#
# A change that moves them on purpose updates tools/lp_work.txt and says
# why.
#
# Usage: sh tools/check_lp_work.sh [metrics.txt]
#   METRICS.TXT is the text report of
#   `apple solve -t internet2 --metrics-out METRICS.TXT`; without it the
#   script runs that solve itself.
set -e

want=tools/lp_work.txt
metrics=$1
if [ -z "$metrics" ]; then
  metrics=$(mktemp /tmp/apple_lp_work.XXXXXX)
  trap 'rm -f "$metrics"' EXIT INT TERM
  dune exec bin/apple_cli.exe -- solve -t internet2 --metrics-out "$metrics" \
    > /dev/null
fi

status=0
while read -r name count; do
  case $name in '' | '#'*) continue ;; esac
  got=$(awk -v n="$name" '$1 == n { print $2 }' "$metrics")
  if [ "$got" != "$count" ]; then
    echo "check_lp_work: $name is ${got:-missing}, $want says $count" >&2
    status=1
  fi
done < "$want"
if [ "$status" -ne 0 ]; then
  echo "check_lp_work: the LP's work on apple solve -t internet2 changed." >&2
  exit 1
fi
echo "check_lp_work: pivots, phase-1 pivots and reduced costs match $want"

#!/usr/bin/env bash
# Regenerates the Figure 5-8 outputs, two generated-workload sweeps (the
# default controller, and the 4-shard event-driven plane, across every
# scenario family on 1 and several CPUs with churn), the two dispatch
# traces (the 1-CPU pipeline, the 4-CPU rbs churn) and the rbs miss-ledger
# series, and byte-compares them against the committed goldens in
# testdata/goldens/. Any drift in the dispatch schedule, the missed-deadline
# count or controller arithmetic fails the build.
#
# To re-bless after an intentional change: scripts/goldens.sh -update
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
[ "${1:-}" = "-update" ] && update=1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rrexp" ./cmd/rrexp

status=0

# CPUs=1 equivalence: the SMP kernel pinned to one CPU must reproduce the
# committed pre-SMP dispatch trace byte-for-byte.
if go test -run 'TestRBSDispatchTraceGolden|TestSMPOneCPUGoldenEquivalence' -count=1 . >/dev/null; then
  echo "rbs_dispatch (CPUs=1): byte-identical"
else
  echo "rbs_dispatch (CPUs=1): diverged" >&2
  status=1
fi

# SMP rbs schedule: a churning 4-CPU machine under RMS and EDF must
# reproduce testdata/goldens/rbs_smp.golden byte-for-byte (the test's
# -update flag rewrites it).
if [ "$update" = 1 ]; then
  go test -run 'TestRBSSMPTraceGolden' -count=1 ./internal/rbs -update >/dev/null
  echo "rbs_smp: updated"
elif go test -run 'TestRBSSMPTraceGolden' -count=1 ./internal/rbs >/dev/null; then
  echo "rbs_smp (CPUs=4, RMS+EDF): byte-identical"
else
  echo "rbs_smp (CPUs=4, RMS+EDF): diverged" >&2
  status=1
fi

# rbs miss ledger: the MissedDeadlines series read through the churning
# 4-CPU rig (RMS and EDF), a 2k-thread storm and a one-CPU long-slice rig
# must reproduce testdata/goldens/rbs_missed.golden byte-for-byte.
if [ "$update" = 1 ]; then
  go test -run 'TestMissLedgerGolden' -count=1 ./internal/rbs -update >/dev/null
  echo "rbs_missed: updated"
elif go test -run 'TestMissLedgerGolden' -count=1 ./internal/rbs >/dev/null; then
  echo "rbs_missed (miss series, 4 rigs): byte-identical"
else
  echo "rbs_missed (miss series, 4 rigs): diverged" >&2
  status=1
fi

# check NAME ARGS... runs rrexp with ARGS and compares its output against
# testdata/goldens/NAME.golden.
check() {
  local name=$1
  shift
  "$tmp/rrexp" "$@" > "$tmp/$name.out"
  local golden="testdata/goldens/$name.golden"
  if [ "$update" = 1 ]; then
    cp "$tmp/$name.out" "$golden"
    echo "$name: updated"
  elif cmp -s "$golden" "$tmp/$name.out"; then
    echo "$name: byte-identical"
  else
    echo "$name: output diverged from $golden:" >&2
    diff "$golden" "$tmp/$name.out" >&2 || true
    status=1
  fi
}

for fig in 5 6 7 8; do
  check "fig$fig" -fig "$fig"
done
check gen_default -gen -seeds 4
check gen_event4 -gen -seeds 4 -controller event -shards 4
exit $status

#!/usr/bin/env bash
# Randomized fault-injection acceptance for the elastic grid, as real
# processes: the same comprehensive analysis (ML starts + rapid
# bootstrap + consensus) runs under seeded link-fault schedules
# (-grid-fault-seed: drops, delays, corruption, severs, stragglers per
# worker) over both fleet transports, and every run must reproduce the
# fault-free serial reference — the faults may cost time (deadlines,
# retries, respawns), never results. Every job runs whole on one rank,
# and a retried job resumes the same job body from its last relayed
# checkpoint, so consensus, best tree, the support-annotated tree and
# the bootstrap replicate trees (branch lengths included) must all match
# byte for byte. A failing seed is replayable: rerun with the same
# -grid-fault-seed.
#
# Usage: scripts/chaos_e2e.sh [workdir] [seeds...]   (from the repo root)
set -euo pipefail

WORK="${1:-chaos-e2e}"
shift || true
SEEDS=("${@:-}")
if [ -z "${SEEDS[0]:-}" ]; then
  SEEDS=(1 2 3 4)
fi

mkdir -p "$WORK"
go build -o "$WORK/raxml" ./cmd/raxml
go build -o "$WORK/mkdata" ./cmd/mkdata

"$WORK/mkdata" -out "$WORK" -taxa 12 -chars 400 -seed 7
common="-s $WORK/custom_12x400.phy -N 20 -starts 2 -grid-batch 5 -p 42 -x 99 -w $WORK"

echo "== serial reference (-grid 0, no faults)"
"$WORK/raxml" $common -n ref -grid 0 > "$WORK/ref.log"

fail=0
for transport in chan tcp; do
  for seed in "${SEEDS[@]}"; do
    name="chaos-$transport-$seed"
    echo "== $transport fleet, fault seed $seed"
    if ! "$WORK/raxml" $common -n "$name" -grid 3 -grid-transport "$transport" \
      -grid-fault-seed "$seed" > "$WORK/$name.log" 2>&1; then
      echo "RUN FAILED (seed $seed, $transport) — replay with -grid-fault-seed $seed" >&2
      tail -20 "$WORK/$name.log" >&2
      fail=1
      continue
    fi
    for out in RAxML_GreedyConsensusTree RAxML_bestTree RAxML_bipartitions RAxML_bootstrap; do
      if ! diff "$WORK/$out.ref" "$WORK/$out.$name" > /dev/null; then
        echo "RESULT DRIFT in $out (seed $seed, $transport) — replay with -grid-fault-seed $seed" >&2
        diff "$WORK/$out.ref" "$WORK/$out.$name" >&2 || true
        fail=1
      fi
    done
  done
done

# No worker process may outlive its master, faults or not.
if pgrep -f -- '-grid-worker' > /dev/null; then
  echo "orphaned grid workers left behind:" >&2
  pgrep -af -- '-grid-worker' >&2
  fail=1
fi

if [ "$fail" != 0 ]; then
  echo "chaos e2e FAILED" >&2
  exit 1
fi
echo "chaos e2e OK: ${#SEEDS[@]} seeds x {chan,tcp} reproduced the reference exactly"

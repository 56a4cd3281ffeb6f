#!/usr/bin/env bash
# Smoke test: build, then run every workload's traced mode for one round
# of one untraced and one traced repetition plus the isolation probes.
# The benchmark itself exits nonzero on a verification error, a missed
# deadline or a metric nobody measured, so this only has to run it.
# Ready for a CI job to call; takes about half a minute on 2 vCPUs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/smoke.json"
bash "$here/run.sh" -traced -reps 2 -seconds 1 -out "$out" >/dev/null
echo "smoke ok: $out"

#!/usr/bin/env bash
# Chaos CLI gate — invoked by the `chaos` job in
# .github/workflows/ci.yml (extracted from an inline blob so the logic
# is reviewable, shellcheck-able, and runnable locally:
# `bash scripts/chaos_gate.sh`).
#
# A degraded sweep (injected panics + stalls) must exit 0 with a
# survivor CI line, and the oracle engine must report the same headline
# and hole breakdown; the abort policy must journal the hole, then fail;
# a journaled chaos sweep must write the same bytes at 1 and 4 threads on
# either integrator.
set -euo pipefail

# Backtraces are the one thread-dependent part of a journal (DESIGN.md
# §12); the byte-identity gate below is stated with them off.
export RUST_BACKTRACE=0

cargo build --release -p pv-bench

out=$(./target/release/repro sweep --quick --devices 12 \
  --chaos-seed 3053 --chaos-panics 2 --chaos-stalls 1 --threads 4)
echo "$out" | grep "fleet degraded: 3 device(s) quarantined"
echo "$out" | grep "survivor score:"

# The oracle engine must account for the same sweep's holes the same
# way: its headline and `fleet degraded:` lines equal the streamed ones.
oracle=$(./target/release/repro sweep --quick --devices 12 \
  --chaos-seed 3053 --chaos-panics 2 --chaos-stalls 1 --threads 4 --oracle)
diff <(echo "$out" | head -n 2) <(echo "$oracle" | head -n 2)

# Abort policy must journal the hole, then fail the process.
if ./target/release/repro sweep --quick --devices 12 \
  --chaos-seed 3053 --chaos-panics 2 --chaos-stalls 1 \
  --on-failure abort --threads 4; then
  echo "FAIL: abort policy exited 0"; exit 1
fi

# The armed fault path must be thread-count independent byte for byte:
# the same journaled chaos sweep at 1 and at 4 threads, once on the
# default Euler integrator and once on the exponential one, whose device
# fast path (the power table) Euler never runs.
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
for integrator in euler exponential; do
  for threads in 1 4; do
    ./target/release/repro sweep --quick --devices 64 --seed 7 \
      --chaos-seed 3053 --chaos-panics 2 --chaos-stalls 1 \
      --integrator "$integrator" --threads "$threads" \
      --journal "$dir/$integrator-t$threads.journal" > /dev/null
  done
  cmp "$dir/$integrator-t1.journal" "$dir/$integrator-t4.journal"
done

echo "OK: chaos CLI gates passed"

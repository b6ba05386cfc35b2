#!/usr/bin/env bash
# Durability CLI gate — invoked by the `durability` job in
# .github/workflows/ci.yml (extracted from an inline blob so the logic
# is reviewable, shellcheck-able, and runnable locally:
# `bash scripts/durability_gate.sh`).
#
# Exercises the storage-degradation, fsck, abort-escalation, and
# export-verification paths end-to-end through the repro binary.
set -euo pipefail

cargo build --release -p pv-bench

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# The journal commits once per 64-device group. Storage ops 0-2 create
# the journal and commit the header, 3-4 commit devices 0-63, and op 5 is
# the second group's write: persistent EIO from there on kills journaling
# mid-sweep. The sweep must still complete with exit 0 and say where
# journaling stopped.
cat > "$workdir/storage-plan.toml" <<'EOF'
[[event]]
kind = "storage-eio-persistent"
at = 5.0
duration = 1.0
EOF
out=$(./target/release/repro sweep --quick --devices 130 --threads 2 \
  --journal "$workdir/degraded.journal" \
  --storage-faults "$workdir/storage-plan.toml" 2>&1)
echo "$out" | grep "storage degraded: journaling stopped at device 64"
echo "$out" | grep "fleet verdict: storage-degraded"

# The surviving journal prefix must be clean and fsck must say so.
./target/release/repro fsck "$workdir/degraded.journal"

# Same plan under abort escalation must fail the process.
rm -f "$workdir/abort.journal"
if ./target/release/repro sweep --quick --devices 130 --threads 2 \
  --journal "$workdir/abort.journal" \
  --storage-faults "$workdir/storage-plan.toml" \
  --storage-escalation abort; then
  echo "FAIL: abort escalation exited 0"; exit 1
fi

# An accubench journal is a one-device sweep journal: cut a finished one
# 5 bytes short, inside its `complete` seal, and `--resume` must replay the
# journaled outcome, append only the seal, and leave the uninterrupted
# bytes, which fsck calls clean.
acc=(./target/release/accubench --device nexus5:2 --scale 0.1 --iterations 2
  --journal "$workdir/acc.journal")
"${acc[@]}" > /dev/null
cp "$workdir/acc.journal" "$workdir/acc.whole"
truncate -s -5 "$workdir/acc.journal"
"${acc[@]}" --resume > /dev/null
cmp "$workdir/acc.journal" "$workdir/acc.whole"
./target/release/repro fsck "$workdir/acc.journal"

# Exporter self-check: tamper with an exported file and require
# `repro verify` to fail naming the file and both checksums.
./target/release/repro fig2 --quick --export "$workdir/figs" > /dev/null
./target/release/repro verify "$workdir/figs"
f=$(ls "$workdir"/figs/*.dat | head -1)
printf 'tampered\n' >> "$f"
if ./target/release/repro verify "$workdir/figs"; then
  echo "FAIL: verify accepted a tampered export"; exit 1
fi
# (the verify is expected to exit non-zero; don't let pipefail eat the grep)
out=$(./target/release/repro verify "$workdir/figs" 2>&1 || true)
echo "$out" | grep "checksum mismatch" | grep "expected"

echo "OK: durability CLI gates passed"

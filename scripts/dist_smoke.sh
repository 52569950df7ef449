#!/usr/bin/env bash
# dist-smoke: real multi-process distributed selection over TCP.
#
# Part 1 — three OS processes (one per rank) bootstrap through the
# rendezvous port and stream-select from a shared shard file; every
# rank's selection must be bit-identical to the in-process -ranks 3 run
# over the same data (the transport-transparency contract).
#
# Part 2 — the same run with rank 2 crash-stopped mid-solve
# (-kill-after) and an operation timeout armed: the survivors must time
# out on the dead rank, agree on the dead set, re-shard, resume from the
# last global checkpoint, and finish with the full budget, agreeing with
# each other.
#
# Run from the repository root: scripts/dist_smoke.sh
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
bin="$work/firal"

go build -o "$bin" ./cmd/firal
go run ./scripts/gensmoke -pool "$work/pool.csv" -labeled "$work/seed.csv" \
    -n 240 -d 6 -c 3 -seed 5
"$bin" -pack "$work/pool.shard" -pool "$work/pool.csv"

common=(-shards "$work/pool.shard" -labeled "$work/seed.csv" -select dist-firal
        -ranks 3 -budget 6 -seed 2 -probes 6 -relaxiters 8)

# Golden reference: the in-process (goroutine-rank) run.
"$bin" "${common[@]}" >"$work/golden.txt" 2>"$work/golden.log"
picked=$(wc -l <"$work/golden.txt")
if [ "$picked" -ne 6 ]; then
    echo "golden run selected $picked points, want 6" >&2
    cat "$work/golden.log" >&2
    exit 1
fi

port=$((21000 + $$ % 20000))

echo "== part 1: 3-process TCP run vs in-process golden (port $port)"
pids=()
for r in 0 1 2; do
    "$bin" "${common[@]}" -peers "127.0.0.1:$port" -rank "$r" \
        >"$work/tcp$r.txt" 2>"$work/tcp$r.log" &
    pids+=($!)
done
for i in 0 1 2; do
    if ! wait "${pids[$i]}"; then
        echo "TCP rank $i failed:" >&2
        cat "$work/tcp$i.log" >&2
        exit 1
    fi
done
for r in 0 1 2; do
    if ! diff -u "$work/golden.txt" "$work/tcp$r.txt"; then
        echo "rank $r TCP selection diverged from the in-process run" >&2
        exit 1
    fi
done
echo "   all 3 ranks bit-identical to the in-process selection"

port=$((port + 1))
echo "== part 2: kill rank 2 mid-solve, survivors recover (port $port)"
pids=()
for r in 0 1; do
    "$bin" "${common[@]}" -peers "127.0.0.1:$port" -rank "$r" \
        -op-timeout 1s >"$work/kill$r.txt" 2>"$work/kill$r.log" &
    pids+=($!)
done
set +e
"$bin" "${common[@]}" -peers "127.0.0.1:$port" -rank 2 \
    -op-timeout 1s -kill-after 25 >"$work/kill2.txt" 2>"$work/kill2.log"
victim=$?
set -e
if [ "$victim" -ne 3 ]; then
    echo "victim exited $victim, want 3 (the -kill-after crash)" >&2
    cat "$work/kill2.log" >&2
    exit 1
fi
for i in 0 1; do
    if ! wait "${pids[$i]}"; then
        echo "survivor rank $i failed:" >&2
        cat "$work/kill$i.log" >&2
        exit 1
    fi
done
for r in 0 1; do
    picked=$(wc -l <"$work/kill$r.txt")
    if [ "$picked" -ne 6 ]; then
        echo "survivor rank $r selected $picked points, want the full budget 6" >&2
        cat "$work/kill$r.log" >&2
        exit 1
    fi
    if ! grep -q "recovered from lost rank" "$work/kill$r.log"; then
        echo "survivor rank $r never reported the recovery:" >&2
        cat "$work/kill$r.log" >&2
        exit 1
    fi
done
if ! diff -u "$work/kill0.txt" "$work/kill1.txt"; then
    echo "survivors disagree on the recovered selection" >&2
    exit 1
fi
echo "   survivors recovered from the killed rank with an agreed full-budget selection"
echo "dist-smoke: ok"

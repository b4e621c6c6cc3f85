#!/usr/bin/env bash
# Runs every workload once per seed through bench/run.sh and appends
# each result line, tagged with its workload, seed and trace flag, to
# bench/results/<set>.jsonl. Run from the repository root:
#
#   bash bench/results/collect.sh seeds-a 0 1 2 3 4 5 6 7 8 9 10
#
# Arguments: the set name, the trace flag (0 or 1), then the seeds.
set -euo pipefail

set_name=$1 trace=$2
shift 2
out="bench/results/$set_name.jsonl"
for seed in "$@"; do
	for w in mp-closed sm-closed kv-open faults-durable; do
		line=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds 10 --trace "$trace" | tail -n 1)
		printf '{"workload":"%s","seed":%s,"trace":%s,"result":%s}\n' "$w" "$seed" "$trace" "$line" >>"$out"
	done
done

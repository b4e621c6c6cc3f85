#!/usr/bin/env bash
# The coverage census: which non-test functions under internal/ does no
# run reach? It builds the CLIs and the examples with -cover, runs what
# the smoke targets, the CLI goldens and the examples run, and compares
# the functions left at 0% with census/unreached.txt. Run it from the
# repository root:
#
#   bash census/run.sh          # or: make coverage-census
#
# It fails when a function outside the list is at 0% (a new path no run
# takes: reach it, delete it, or list it with a reason), when a listed
# function now runs (take it off the list, which only shrinks), or when
# an entry has no reason. internal/analysis (simvet's analyzers, run by
# cmd/simvet), internal/contgen (the code generator's library) and
# internal/clitest (test helpers) are left out.
#
# What it leaves in $CENSUS_OUT (default .census/) for a closer look:
#   func.txt    per-function coverage (go tool covdata func)
#   blocks.txt  per-block counts (go tool covdata textfmt); a function
#               the function view counts as covered can still hold
#               blocks no run enters. Render it with
#               go tool cover -html=.census/blocks.txt
#   zero.txt    the 0% functions, one "file function" line each
set -euo pipefail

out="${CENSUS_OUT:-$PWD/.census}"
list=census/unreached.txt
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/tmp"

# Plain -cover instruments every package of the main module.
for c in paperfigs countnet btree kv advise msgmodel; do
	go build -cover -o "$out/bin/$c" "./cmd/$c"
done
examples=()
for d in examples/*/; do
	n=$(basename "$d")
	go build -cover -o "$out/bin/example-$n" "./$d"
	examples+=("$n")
done

export GOCOVERDIR="$out/cov"
run() { "$out/bin/$1" "${@:2}" > /dev/null; }

# paperfigs: every experiment at quick windows, a sharded scale sweep and
# a faulted suite (make smoke, fault-smoke, kv-smoke, recovery-smoke).
pf() { run paperfigs -quick -workers 2 "$@"; }
pf -exp all
for e in ext-objmig ext-policy ext-fault ext-kv ext-recovery ext-ablation scale; do
	pf -exp "$e"
done
pf -exp scale -shards 3
pf -exp all -faults drop=0.01,dup=0.005,delay=0:40
# The report flags: markdown tables, host profile and bench JSON.
pf -exp table3 -format md -profile 2> /dev/null
pf -exp table3 -bench-json "$out/tmp/bench.json" 2> /dev/null

# The app CLIs: the TestStdoutGolden configs, the smoke targets' runs and
# the cmd/countnet shard runs make shard-identity compares, and a traced run.
cn=(-threads 8 -warmup 10000 -measure 60000)
wipe=wipe=p2@40000+5000,ckpt=10000,seed=7
run countnet -policy costmodel -policy-stats "$out/tmp/stats.json" "${cn[@]}"
run countnet -policy bandit -durable "${cn[@]}"
run countnet -durable "${cn[@]}"
run countnet -faults "$wipe" "${cn[@]}"
run countnet -scheme om "${cn[@]}"
run countnet -scheme om -faults wipe=p0@40000+5000,ckpt=10000,seed=7 "${cn[@]}"
run countnet -scheme cm -shards 3 "${cn[@]}"
run countnet -scheme rpc -shards 3 "${cn[@]}"
run countnet -trace 20 "${cn[@]}" 2> /dev/null
run countnet -scheme cm -faults drop=0.03,dup=0.01,delay=0:40,crash=p3@30000+10000,seed=7 -measure 100000
run countnet -scheme om -faults drop=0.03,dup=0.01,delay=0:40,seed=7 -measure 100000
run countnet -scheme cm -faults wipe=p2@60000+8000,ckpt=20000,seed=7 -measure 100000

bt=(-keys 1000 -threads 4 -warmup 5000 -measure 40000)
run btree -policy costmodel "${bt[@]}"
run btree -policy bandit -durable "${bt[@]}"
run btree -durable "${bt[@]}"
run btree -faults wipe=p5@20000+5000,ckpt=10000,seed=7 "${bt[@]}"
run btree -scheme om "${bt[@]}"
run btree -scheme om -faults wipe=p10@20000+5000,ckpt=10000,seed=7 "${bt[@]}"
run btree -scheme rpc -faults drop=0.03,dup=0.01,delay=0:40,crash=p5@30000+10000,seed=7 -measure 100000
run btree -scheme rpc -faults wipe=p5@30000+8000,ckpt=20000,seed=7 -measure 100000

small=(-workload keys=64,ops=300,period=150)
mixed=(-workload keys=64,ops=300,period=150,mix=50:40:10)
run kv -policy costmodel "${mixed[@]}"
run kv -scheme rpc -policy bandit -durable "${mixed[@]}"
run kv -durable "${small[@]}"
run kv -faults wipe=p1@20000+5000,ckpt=10000,seed=7 "${mixed[@]}"
run kv -scheme sm -faults wipe=p1@20000+5000,ckpt=10000,seed=7 "${mixed[@]}"
run kv -scheme rpc -workload keys=128,ops=500,period=300,zipf=0.9,mix=60:35:5
run kv -scheme cm -hetero gradient:1:4 -workload keys=128,ops=500,period=300
run kv -scheme sm -hetero bimodal:4:0.5 -faults drop=0.02,seed=5
run kv -scheme cm -workload keys=128,ops=500,period=300 -faults wipe=p2@30000+8000,ckpt=20000,seed=7

# The offline tools: the advisor on flags and on the policy run's
# statistics, and the message-cost model.
run advise
run advise -hw
run advise -from-stats "$out/tmp/stats.json"
run msgmodel

for n in "${examples[@]}"; do
	run "example-$n"
done

go tool covdata func -i="$out/cov" > "$out/func.txt"
go tool covdata textfmt -i="$out/cov" -o "$out/blocks.txt"

# "compmig/internal/mem/mem.go:245:	victimState	0.0%" -> "internal/mem/mem.go victimState"
awk '$NF == "0.0%" { split($1, p, ":"); f = p[1]; sub(/^compmig\//, "", f); print f, $2 }' "$out/func.txt" |
	grep '^internal/' | grep -Ev '^internal/(analysis|contgen|clitest)/' | LC_ALL=C sort > "$out/zero.txt"

status=0
if awk '!/^#/ && NF && !/ # ./ { print; bad = 1 } END { exit !bad }' "$list" > "$out/tmp/noreason"; then
	echo "census: entries in $list without a reason (\"file function # reason\"):"
	cat "$out/tmp/noreason"
	status=1
fi
sed -e '/^#/d' -e '/^$/d' -e 's/ *#.*//' "$list" | LC_ALL=C sort > "$out/tmp/listed"
LC_ALL=C comm -23 "$out/zero.txt" "$out/tmp/listed" > "$out/tmp/new"
LC_ALL=C comm -13 "$out/zero.txt" "$out/tmp/listed" > "$out/tmp/gone"
if [ -s "$out/tmp/new" ]; then
	echo "census: functions no run reaches that $list does not list (reach, delete, or list them with a reason):"
	cat "$out/tmp/new"
	status=1
fi
if [ -s "$out/tmp/gone" ]; then
	echo "census: listed functions that now run or no longer exist (take them off $list):"
	cat "$out/tmp/gone"
	status=1
fi
if [ "$status" = 0 ]; then
	echo "census: $(wc -l < "$out/zero.txt") functions under internal/ no run reaches, each listed with its reason"
fi
exit "$status"

# make check is the CI gate: vet, build, tests, the race detector (the
# harness worker pool is real host-side concurrency), the fast-path,
# policy, and fault A/B identity tests, a short fuzz pass over the wire
# codec and the fault-plan parser, a quick parallel smoke run of the
# full evaluation suite, a faulty smoke run with invariant checking, a
# crash-recovery smoke run (WAL/checkpoint durability under wipe
# faults), a benchdiff smoke over the committed reports, the coverage
# census, and the benchmark module's own tests.

GO ?= go

# Committed full-scale benchmark reports. BENCH_CURRENT is the full
# suite (every sweep, ext-fault, ext-kv, ext-recovery, ext-ablation and
# scale) from one commit; BENCH_BASELINE is an older report written before counters
# were keyed by name, so benchdiff-smoke also proves old reports still
# load. BENCH_SHARDS is the sharded-engine report (shards=1 vs shards=N
# entries, carrying the shard.* counters); it matches no serial
# report's keys, so it is smoked separately.
BENCH_BASELINE := BENCH_2026-08-06-fault.json
BENCH_CURRENT  := BENCH_2026-10-19.json
BENCH_SHARDS   := BENCH_2026-10-17-shards.json

.PHONY: check lint vet simvet build test race ab-identity shard-identity engine-order alloc-pins golden golden-update fuzz-smoke smoke kv-smoke fault-smoke recovery-smoke benchdiff-smoke coverage-census bench-test bench-gate bench bench-json bench-json-shards loc

check: lint build test race ab-identity shard-identity engine-order alloc-pins golden fuzz-smoke smoke kv-smoke fault-smoke recovery-smoke benchdiff-smoke coverage-census bench-test
	@echo "check: all green"

# lint is go vet plus simvet, the repo's own determinism/purity analyzer
# suite (cmd/simvet): nondeterministic inputs, map-order leaks, host-side
# purity, seeded randomness, and cost-model charging are all build
# failures, not conventions. simvet -json emits machine-readable findings.
lint: vet simvet

# vet also covers the nested bench module, which the root ./... pattern
# never reaches and which imports the library.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

simvet:
	$(GO) run ./cmd/simvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race also re-runs, with four host threads, the test that runs
# machines on two workers at once through the retired-lane stack
# (sim.Machine.Retire), the one pool shared across harness workers.
race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race ./internal/apps/countnet/ -run 'TestRetireReviveConcurrent' -count=1

# ab-identity re-runs just the fast-path A/B contracts by name so a CI
# log shows them explicitly: every rendered table and every simulated
# metric must be identical with the inline fast paths on and off.
ab-identity:
	$(GO) test ./internal/harness/ -run TestFastPathABIdentity -count=1
	$(GO) test ./internal/mem/ -run TestFastPathCollectorIdentity -count=1
	$(GO) test ./internal/harness/ -run TestPolicyStaticABIdentity -count=1
	$(GO) test ./internal/harness/ -run TestFaultZeroSpecIsByteIdentical -count=1
	@echo "ab-identity: fast paths, static policies, and zero fault plans are observationally equivalent"

# shard-identity pins the sharded event engine's determinism contract:
# clustered runs render byte-identical output at every shard count (the
# engine-level synthetic workload, the countnet application, and the
# harness-rendered tables) and process the same number of events, the
# network routes same-lane and cross-lane sends on a two-lane machine,
# and the parallel lane drivers and the carriers revived from the
# retired-lane stack are race-clean.
shard-identity:
	$(GO) test ./internal/sim/ ./internal/network/ -run 'Cluster|CrossSend' -count=1
	$(GO) test ./internal/apps/countnet/ -run TestCluster -count=1
	$(GO) test ./internal/harness/ -run 'TestShardCountIdentity|TestShardScaleIdentity|TestShardScaleEventCount' -count=1
	GOMAXPROCS=4 $(GO) test -race ./internal/sim/ ./internal/network/ ./internal/apps/countnet/ -run 'Cluster|Shard|Carrier' -count=1
	@echo "shard-identity: rendered output is byte-identical at every shard count"

# engine-order pins the serial event queue, a heap of sorted runs: the
# exact-order property test (seeded random mixes dispatch in strictly
# increasing (time, seq), every uncancelled event fires once, RunUntil,
# Stop and MaxEvents cut the same sequence) and the focused run tests run
# by name, and every BenchmarkEngine* microbenchmark runs once so none
# can rot.
engine-order:
	$(GO) test ./internal/sim/ -run 'TestEngineExactOrder|TestSpawnArrivals|TestCancelInRun|TestRunOrderViolation' -count=1
	$(GO) test ./internal/sim/ -run '^$$' -bench Engine -benchtime 1x
	@echo "engine-order: the sorted runs dispatch in exact (time, seq) order"

# alloc-pins re-runs the allocation pins by name: the warm message path
# (remote call, migration hop, local call, and a contended object pull
# that is forwarded once and waits out a pin), the reliability layer's
# send/deliver/ack cycle under faults, the coherence slow path (a write
# invalidating 1, 3 and 6 sharers, a miss on a reclaimed directory entry,
# a dirty-eviction writeback), and one operation per app
# (countnet traversal, kv get and put, a B-tree lookup, each under SM,
# CM and RPC; the countnet traversal also under OM, where a rival
# requester pulls every object back; and the countnet traversal under a
# drop/dup fault plan with CM, RPC and OM) must allocate no more heap
# objects than their bounds, and the B-tree's key-set check allocates
# only its key list. Six pins bound
# per-run memory instead: an open-loop arrival run allocates the same
# bytes at 100 and 10,000 arrivals; repeated rounds of making and
# releasing caches allocate no fresh cache backing after the first;
# three identical countnet CM runs, three identical small kv
# open-loop runs and three identical B-tree SM runs that look up,
# insert and scan, back to back, allocate the same objects in runs 2
# and 3, fewer than run 1 by at least the idle records run 1 retired;
# a retired countnet or kv machine's runtime and engine are collected
# once a later run has revived its lane; and, with the collector off,
# three shared-memory kv runs leave their carriers' stacks at 4 KiB
# each.
alloc-pins:
	$(GO) test ./internal/sim/ -run 'Allocs' -count=1
	$(GO) test ./internal/core/ -run 'Allocs' -count=1
	$(GO) test ./internal/network/ -run 'Allocs' -count=1
	$(GO) test ./internal/mem/ -run 'Allocs' -count=1
	$(GO) test ./internal/apps/countnet/ -run 'TestTraverseAllocs(SM|CM|RPC|OM)$$|TestFaultedTraverseAllocs(CM|RPC|OM)$$|TestRunAllocs$$|TestRetiredRunIsCollected$$' -count=1
	$(GO) test ./internal/apps/kv/ -run 'TestGetAllocs|TestPutAllocs|TestRunAllocs|TestRetiredRunIsCollected|TestCarrierStacksStaySmall' -count=1
	$(GO) test ./internal/apps/btree/ -run 'TestLookupAllocs|TestRunAllocs|TestVerifyKeySetAllocs' -count=1
	@echo "alloc-pins: no operation allocates more than its pinned bound"

# golden re-runs the output contracts by name: every paperfigs table at
# quick windows (internal/harness/testdata/golden_quick.txt) and the full
# stdout of the countnet, btree and kv CLIs and of every example
# (cmd/*/testdata/ and examples/*/testdata/stdout_golden.txt) must be
# byte-identical to the committed files.
golden:
	$(GO) test ./internal/harness/ -run TestRenderedOutputGolden -count=1
	$(GO) test ./cmd/countnet/ ./cmd/btree/ ./cmd/kv/ ./examples/... -run TestStdoutGolden -count=1
	@echo "golden: rendered tables, CLI and example stdout unchanged"

# golden-update regenerates the CLI and example stdout goldens after a
# change meant to move a program's output; the diff shows exactly which
# lines moved.
golden-update:
	$(GO) test ./cmd/countnet/ ./cmd/btree/ ./cmd/kv/ ./examples/... -run TestStdoutGolden -count=1 -update

# fuzz-smoke runs the msg codec and fault-plan parser fuzz targets
# briefly over their seed corpora plus fresh mutations; a decoding
# panic or round-trip mismatch fails the build.
fuzz-smoke:
	$(GO) test ./internal/msg/ -run '^$$' -fuzz FuzzReaderNeverPanics -fuzztime 5s
	$(GO) test ./internal/msg/ -run '^$$' -fuzz FuzzWriterReaderRoundTrip -fuzztime 5s
	$(GO) test ./internal/fault/ -run '^$$' -fuzz FuzzParseSpec -fuzztime 5s
	@echo "fuzz-smoke: msg codec and fault-plan parser survived fuzzing"

smoke:
	$(GO) run ./cmd/paperfigs -exp all -quick -workers 4 > /dev/null
	@echo "smoke: paperfigs -exp all -quick -workers 4 ok"

# kv-smoke drives the KV/session store end to end: the ext-kv sweep
# (skew x heterogeneity x policy, invariant checkers run inside every
# cell and its renderer panics on a violation), the worker-count
# byte-identity and mechanism-crossover tests, and one CLI run per
# scheme — each exits nonzero if read-your-writes or no-lost-updates is
# violated.
kv-smoke:
	$(GO) run ./cmd/paperfigs -exp ext-kv -quick -workers 4 > /dev/null
	$(GO) test ./internal/harness/ -run 'TestKVWorkerIdentity|TestKVCrossover' -count=1
	$(GO) run ./cmd/kv -scheme rpc -workload 'keys=128,ops=500,period=300,zipf=0.9,mix=60:35:5' > /dev/null
	$(GO) run ./cmd/kv -scheme cm -hetero gradient:1:4 -workload 'keys=128,ops=500,period=300' > /dev/null
	$(GO) run ./cmd/kv -scheme sm -hetero bimodal:4:0.5 -faults 'drop=0.02,seed=5' > /dev/null
	@echo "kv-smoke: store invariants held across schemes, heterogeneity, and faults"

# fault-smoke drives both applications through a faulty run end to end:
# the ext-fault sweep (invariant checkers run inside, and the harness
# test asserts every cell is "ok"), plus one CLI run per app under a
# plan with drop, duplication, jitter, and a mid-run crash window, and
# one countnet run under object migration, whose pooled fetches, moves
# and forwarded legs then cross the reliability layer — a nonzero exit
# means an invariant was violated or a run hung.
fault-smoke:
	$(GO) run ./cmd/paperfigs -exp ext-fault -quick -workers 4 > /dev/null
	$(GO) test ./internal/harness/ -run TestFaultSweepInvariantsHold -count=1
	$(GO) run ./cmd/countnet -scheme cm -faults 'drop=0.03,dup=0.01,delay=0:40,crash=p3@30000+10000,seed=7' -measure 100000 > /dev/null
	$(GO) run ./cmd/btree -scheme rpc -faults 'drop=0.03,dup=0.01,delay=0:40,crash=p5@30000+10000,seed=7' -measure 100000 > /dev/null
	$(GO) run ./cmd/countnet -scheme om -faults 'drop=0.03,dup=0.01,delay=0:40,seed=7' -measure 100000 > /dev/null
	@echo "fault-smoke: both applications recovered with invariants intact"

# recovery-smoke drives the durability tentpole end to end: the
# ext-recovery sweep (mechanism x wipe count x checkpoint interval; its
# renderer panics if any point ran without the WAL or recovered the
# wrong number of wipes), the harness-level A/B identity and
# reproducibility contracts, and one CLI wipe run per application — a
# nonzero exit means an acked write was lost or replay diverged.
recovery-smoke:
	$(GO) run ./cmd/paperfigs -exp ext-recovery -quick -workers 4 > /dev/null
	$(GO) test ./internal/harness/ -run 'TestDurabilityOffIsByteIdentical|TestRecoverySweepReproducible|TestRecoverySweepInvariantsHold' -count=1
	$(GO) run ./cmd/kv -scheme cm -workload 'keys=128,ops=500,period=300' -faults 'wipe=p2@30000+8000,ckpt=20000,seed=7' > /dev/null
	$(GO) run ./cmd/countnet -scheme cm -faults 'wipe=p2@60000+8000,ckpt=20000,seed=7' -measure 100000 > /dev/null
	$(GO) run ./cmd/btree -scheme rpc -faults 'wipe=p5@30000+8000,ckpt=20000,seed=7' -measure 100000 > /dev/null
	@echo "recovery-smoke: no acked write lost across wipes; recovery traces reproducible"

# benchdiff-smoke exercises the diff tool against the committed reports:
# the old-format baseline against the current report, then the shard
# and WAL counters by name. No -threshold: recorded wall clocks are from
# different commits of the simulator, so this gates only on the tool and
# report format working.
benchdiff-smoke:
	$(GO) run ./cmd/benchdiff $(BENCH_BASELINE) $(BENCH_CURRENT) > /dev/null
	$(GO) run ./cmd/benchdiff $(BENCH_SHARDS) $(BENCH_SHARDS) | grep 'shard.windows=' > /dev/null
	$(GO) run ./cmd/benchdiff $(BENCH_CURRENT) $(BENCH_CURRENT) | grep 'store.wal_appends=' > /dev/null
	@echo "benchdiff-smoke: $(BENCH_BASELINE) vs $(BENCH_CURRENT) ok; shard counters in $(BENCH_SHARDS) and WAL counters in $(BENCH_CURRENT) render"

# coverage-census builds the CLIs and examples with -cover, runs what the
# smoke targets, the CLI goldens and the examples run, and fails if a
# non-test function under internal/ that no run reaches is missing from
# census/unreached.txt (each entry there says why), or if a listed one
# now runs. It leaves the function and block views in .census/. About
# 15 s.
coverage-census:
	bash census/run.sh

# bench-test runs the tests of the benchmark module (bench/ is a nested
# module, so the root `go test ./...` never reaches it). They run every
# workload at quick windows and fail when a config's simulated results
# differ from rep to rep or between traced and untraced reps — the
# determinism that pooled host objects must not disturb. About 30 s.
bench-test:
	cd bench && $(GO) test ./...
	@echo "bench-test: every workload deterministic from rep to rep and traced vs untraced"

# bench-gate regenerates a full-scale report from the working tree and
# gates it against the committed $(BENCH_CURRENT) with a wall-clock
# regression threshold. Both reports must come from the same machine for
# the threshold to mean anything, so this is the perf-work loop (run it
# after regenerating $(BENCH_CURRENT) on your machine), not part of
# check — cross-commit reports are compared ungated by benchdiff-smoke.
bench-gate:
	$(GO) run ./cmd/paperfigs -exp all -workers 4 -bench-json BENCH_gate.json
	$(GO) run ./cmd/benchdiff -threshold 25 $(BENCH_CURRENT) BENCH_gate.json
	@rm -f BENCH_gate.json
	@echo "bench-gate: no experiment regressed more than 25% vs $(BENCH_CURRENT)"

# bench regenerates the suite benchmarks (quick scale) with allocation
# statistics; see BENCH_*.json for recorded full-scale runs.
bench:
	$(GO) test -bench BenchmarkSuite -benchmem -run '^$$' .

# bench-json regenerates the full-scale benchmark report (every sweep,
# ext-fault, ext-kv, ext-recovery, ext-ablation and scale, each at
# workers=1 and 4);
# rename and commit it alongside the existing BENCH_*.json files, then
# point BENCH_CURRENT at it.
bench-json:
	$(GO) run ./cmd/paperfigs -exp all -workers 4 -bench-json BENCH_new.json

# bench-json-shards regenerates the sharded-engine report: the scale
# sweep at shards=1 vs shards=8 with the shard.* synchronization
# counters.
bench-json-shards:
	$(GO) run ./cmd/paperfigs -exp scale -shards 8 -bench-json BENCH_new-shards.json

# loc prints the non-test, non-generated (*_gen.go) Go lines of every
# directory under internal/, cmd/ and examples/, each directory's count
# including its subdirectories', so a change can state its line counts
# without counting by hand. Test fixtures under testdata/ are skipped.
loc:
	@find internal cmd examples -name '*.go' ! -name '*_test.go' ! -name '*_gen.go' ! -path '*/testdata/*' -exec wc -l {} + | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = p[1]; sum[d] += $$1; for (i = 2; i < n; i++) { d = d "/" p[i]; sum[d] += $$1 } } \
		END { for (d in sum) printf "%7d %s\n", sum[d], d }' | sort -k2

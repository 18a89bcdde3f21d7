GO ?= go

# The staticcheck version is pinned once, in tools/go.mod; everything else
# (this Makefile, CI) greps it from there.
STATICCHECK_VERSION := $(shell grep -o 'staticcheck [0-9][0-9A-Za-z.]*' tools/go.mod | cut -d' ' -f2)

.PHONY: test vet lint runpatterns race goldens bench perf perf-quick fuzz fuzz-serve fuzz-shard fuzz-chaos chaos

# -shuffle=on randomizes test order within each package so order-dependent
# tests cannot hide behind file order; CI runs the same way.
test:
	$(GO) build ./... && $(GO) test -shuffle=on ./...

# Static analysis: go vet always; staticcheck when installed (pinned in
# tools/go.mod; CI installs that exact version). `vet` works without
# siglint — `lint` is the full suite.
vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; fi

# Full static suite: everything `vet` runs, plus the repo's own analyzers
# (cmd/siglint) proving the runtime's invariants — replay determinism
# (determinism), pool get/put pairing (poolpair), noalloc hot paths
# (noalloc) — and their must-fail test: each analyzer must flag its mutant
# of the product code (cmd/siglint/mutants_test.go). Last, the goldens'
# must-fail mutant, CI's step of that name: TestStudyGoldens must fail with
# the pacer's perShard missing its workers factor (applied by -overlay; the
# tree is never edited), or a study has a budget rule of its own again. And
# the due-token must-fail mutant, CI's step of that name:
# TestServeDueArrivalFiresWave must fail under a Submit that never posts the
# due token (its dueArrival call deleted, by -overlay too).
# runpatterns runs first: every repeated -run pattern must still name tests.
lint: vet runpatterns
	$(GO) build -o siglint.bin ./cmd/siglint
	$(GO) vet -vettool=$$(pwd)/siglint.bin ./...
	@rm -f siglint.bin
	$(GO) test -count=1 ./cmd/siglint
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	sed 's/return float64(p.workers) \* float64(p.effective())/return float64(p.effective())/' sig/serve/pacer.go > "$$tmp/pacer.go"; \
	if cmp -s sig/serve/pacer.go "$$tmp/pacer.go"; then echo "mutant: perShard's line not found in sig/serve/pacer.go" >&2; exit 1; fi; \
	printf '{"Replace":{"%s":"%s"}}' "$$(pwd)/sig/serve/pacer.go" "$$tmp/pacer.go" > "$$tmp/overlay.json"; \
	if out=$$($(GO) test -count=1 -overlay "$$tmp/overlay.json" -run TestStudyGoldens ./internal/harness 2>&1); then echo "TestStudyGoldens passed under the perShard mutant" >&2; exit 1; fi; \
	echo "$$out" | grep -q -- '--- FAIL: TestStudyGoldens/' || { echo "$$out" >&2; exit 1; }; \
	echo "TestStudyGoldens fails under the perShard mutant, as it must"
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	sed '/s\.pace\.dueArrival(now)/d' sig/serve/serve.go > "$$tmp/serve.go"; \
	if cmp -s sig/serve/serve.go "$$tmp/serve.go"; then echo "mutant: Submit's dueArrival call not found in sig/serve/serve.go" >&2; exit 1; fi; \
	printf '{"Replace":{"%s":"%s"}}' "$$(pwd)/sig/serve/serve.go" "$$tmp/serve.go" > "$$tmp/overlay.json"; \
	if out=$$($(GO) test -count=1 -overlay "$$tmp/overlay.json" -run TestServeDueArrivalFiresWave ./sig/serve 2>&1); then echo "TestServeDueArrivalFiresWave passed under the due-token mutant" >&2; exit 1; fi; \
	echo "$$out" | grep -q -- '--- FAIL: TestServeDueArrivalFiresWave' || { echo "$$out" >&2; exit 1; }; \
	echo "TestServeDueArrivalFiresWave fails under the due-token mutant, as it must"

# Every alternative of every -run pattern in this Makefile and in CI must
# list at least one test (go test -list): a deleted or renamed test must not
# silently empty a repeat. `make lint` and CI run it.
RUN_PATTERN_FILES ?= Makefile .github/workflows/ci.yml

runpatterns:
	@fail=0; \
	for run in $$(grep -hoE -- "-run '?[A-Za-z0-9_|]+'?( +\./[^ ']+)+" $(RUN_PATTERN_FILES) | sort -u | tr ' ' '#'); do \
		set -- $$(echo "$$run" | tr '#' ' '); pat=$$(echo "$$2" | tr -d "'"); shift 2; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			if ! $(GO) test -list "$$alt" "$$@" | grep -qE '^(Test|Benchmark|Fuzz|Example)'; then \
				echo "-run alternative $$alt lists no test in $$*" >&2; fail=1; \
			fi; \
		done; \
	done; \
	if [ $$fail = 0 ]; then echo "every -run alternative lists a test"; fi; \
	exit $$fail

# The lines after the first repeat the ring, backpressure, helping-taskwait
# and concurrent-submitter tests, the serving pump's wake-token (the new
# token test included: `Wake` lists it), due-arrival, early-wave and pacer
# tests, the
# per-request resolution tests (body-end Done, release and resubmit mid-wave,
# Totals snapshots under load) and the server's autoscale test, whose
# surgery runs inside the wave (CI's race job repeats these four), and the
# shard lifecycle's table, drain, rejoin and autoscale tests: their failures
# are interleavings, and one pass sees few of them.
race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -count=20 -run 'Ring|Backpressure|WaitHelps|ConcurrentSubmitters' ./sig
	$(GO) test -race -count=20 -run 'Wake|Due|Early|Pace|Start|IdleArrival|KeepsCadence|DoneAtBodyEnd|ReleaseAtDone|TotalsSnapshot|AutoScale' ./sig/serve
	$(GO) test -race -count=20 -run 'Lifecycle|Drain|AddShard|Autoscal' ./sig/shard

# Rewrite internal/harness/testdata/<name>.golden — the full printed output
# of every entry of harness.Studies, which TestStudyGoldens compares against
# — from the current code. Only for a change that means to move those
# numbers; explain each differing line in the PR.
goldens:
	$(GO) test ./internal/harness -run TestStudyGoldens -update

bench:
	$(GO) test ./sig ./sig/shard ./sig/serve -run xxx -bench . -benchtime 1s

# The repository's performance benchmark (BENCHMARK.json, benchmark/README.md):
# four workloads end to end, ~2 min. `perf-quick` is its 1 s smoke with every
# check on (~10 s). Both write only to .bench_build/.
perf:
	$(GO) run ./benchmark

perf-quick:
	$(GO) run ./benchmark -quick

# The native fuzz targets, listed once as package:Func. `make fuzz` gives
# each FUZZTIME (minimization is capped so the budget is spent fuzzing), and
# is CI's one fuzz step:
#   FuzzPolicyDecisions  the policy invariants
#   FuzzServeAdmission   the serving admission path: outcome conservation,
#                        queue bounds, the MinRatio contract, zero joules for
#                        dropped requests
#   FuzzShardRouting     cross-shard conservation, specials and the merged
#                        ratio floor under adversarial wave cuts, retargeting
#                        and drain/rejoin surgery
#   FuzzChaosSchedule    seeded drain/rejoin schedules against a live fleet:
#                        conservation, availability and the exact
#                        declared-cost energy identity
FUZZ_TARGETS := ./sig:FuzzPolicyDecisions ./sig/serve:FuzzServeAdmission \
	./sig/shard:FuzzShardRouting ./sig/chaos:FuzzChaosSchedule
FUZZTIME ?= 20s

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1x; \
	done

# `make fuzz-serve|fuzz-shard|fuzz-chaos`: the one target of that package.
fuzz-serve fuzz-shard fuzz-chaos:
	@$(MAKE) --no-print-directory fuzz FUZZ_TARGETS='$(filter ./sig/$(@:fuzz-%=%):%,$(FUZZ_TARGETS))'

# Fleet-surgery suites under the race detector: seeded surgery plans, a
# stalled shard, elastic router surgery and the rolling-replace/autoscale
# acceptance gates.
chaos:
	$(GO) test -race -shuffle=on ./sig/chaos ./sig/shard ./sig/serve -count=1
	$(GO) test -race -run 'TestFleetStudy' ./internal/harness -count=1

GO ?= go

# The staticcheck version is pinned once, in tools/go.mod; everything else
# (this Makefile, CI) greps it from there.
STATICCHECK_VERSION := $(shell grep -o 'staticcheck [0-9][0-9A-Za-z.]*' tools/go.mod | cut -d' ' -f2)

.PHONY: test vet lint race goldens bench perf perf-quick fuzz fuzz-serve fuzz-shard fuzz-chaos chaos

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
# tree is never edited), or a study has a budget rule of its own again.
lint: vet
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

# The lines after the first repeat the ring, backpressure, helping-taskwait
# and concurrent-submitter tests, the serving pump's wake-token, early-wave
# and pacer tests, the per-request resolution tests (body-end Done, release
# and resubmit mid-wave, the late shard cut, drops beside a wedged shard,
# Totals snapshots under load; CI's race job repeats these five), and the
# shard lifecycle's table, drain,
# rejoin and autoscale tests: their failures are interleavings, and one pass
# sees few of them.
race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -count=20 -run 'Ring|Backpressure|WaitHelps|ConcurrentSubmitters' ./sig
	$(GO) test -race -count=20 -run 'Wake|Early|Pace|Start|IdleArrival|KeepsCadence|DoneAtBodyEnd|ReleaseAtDone|LateShardCut|WedgedShard|TotalsSnapshot' ./sig/serve
	$(GO) test -race -count=20 -run 'Lifecycle|Drain|AddShard|Quarantine|Revive|Elastic|Autoscal' ./sig/shard

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
#                        and drain/rejoin/quarantine/revive surgery
#   FuzzChaosSchedule    seeded fault schedules (wedge, delay, panic) against
#                        a live fleet: conservation, panic accounting and the
#                        exact declared-cost energy identity
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

# Fault-injection and fleet-surgery suites under the race detector: the
# chaos injectors, elastic router surgery, health quarantine and the
# rolling-replace/autoscale acceptance gates.
chaos:
	$(GO) test -race -shuffle=on ./sig/chaos ./sig/shard ./sig/serve -count=1
	$(GO) test -race -run 'TestFleetStudy' ./internal/harness -count=1

GO ?= go

# The staticcheck version is pinned once, in tools/go.mod; everything else
# (this Makefile, CI) greps it from there.
STATICCHECK_VERSION := $(shell grep -o 'staticcheck [0-9][0-9A-Za-z.]*' tools/go.mod | cut -d' ' -f2)

.PHONY: test vet lint runpatterns race goldens bench perf perf-quick fuzz fuzz-serve fuzz-shard loc

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
# (noalloc) — and the must-fail mutants of cmd/siglint/mutants_test.go, each
# applied by -overlay (the tree is never edited): each analyzer must flag its
# mutant of the product code, and each test row's test must fail under its
# own — the goldens under the pacer's price without its workers factor,
# TestServeDueArrivalFiresWave under a Submit that never posts the due token,
# TestServeEarlyWavesReadFleetLoad under a due rule that never calls a wave
# early, TestServeFakeTimeWake under a pump that fires only when a wave is
# due, TestServePacerBounds under a pacer whose cadence ceiling is
# WavePeriod, the paper golden under perforation truncating its step and
# under LQH halving its history, and TestKernelQualityGoldens under Sobel's
# degraded-pixel table read one difference off.
# runpatterns runs first: every repeated -run pattern must still name tests.
lint: vet runpatterns
	$(GO) build -o siglint.bin ./cmd/siglint
	$(GO) vet -vettool=$$(pwd)/siglint.bin ./...
	@rm -f siglint.bin
	$(GO) test -count=1 ./cmd/siglint

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
# tests, and the per-request resolution tests (body-end Done, release and
# resubmit mid-wave, Totals snapshots under load; CI's race job repeats these
# three): their failures are interleavings, and one pass sees few of them.
race:
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -count=20 -run 'Ring|Backpressure|WaitHelps|ConcurrentSubmitters' ./sig
	$(GO) test -race -count=20 -run 'Wake|Due|Early|Pace|Start|IdleArrival|KeepsCadence|DoneAtBodyEnd|ReleaseAtDone|TotalsSnapshot' ./sig/serve

# Rewrite internal/harness/testdata/<name>.golden — the full printed output
# of every entry of harness.Studies, which TestStudyGoldens compares against
# — from the current code. Only for a change that means to move those
# numbers; explain each differing line in the PR.
goldens:
	$(GO) test ./internal/harness -run TestStudyGoldens -update

bench:
	$(GO) test ./sig ./sig/shard ./sig/serve ./internal/bench/... -run xxx -bench . -benchtime 1s

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
#                        ratio floor under adversarial wave cuts and
#                        retargeting
FUZZ_TARGETS := ./sig:FuzzPolicyDecisions ./sig/serve:FuzzServeAdmission \
	./sig/shard:FuzzShardRouting
FUZZTIME ?= 20s

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t ($(FUZZTIME))"; \
		$(GO) test $${t%%:*} -run '^$$' -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 1x; \
	done

# `make fuzz-serve|fuzz-shard`: the one target of that package.
fuzz-serve fuzz-shard:
	@$(MAKE) --no-print-directory fuzz FUZZ_TARGETS='$(filter ./sig/$(@:fuzz-%=%):%,$(FUZZ_TARGETS))'

# Go lines per package directory, non-test and test files apart, over the
# files git tracks (`git ls-files '*.go'`), then the totals: the counts the
# ROADMAP and CHANGES.md quote. A file under a testdata/ directory (an
# analyzer fixture) is test, counted to the package that holds the testdata.
loc:
	@git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" { \
		d = $$2; if (!sub(/\/testdata\/.*$$/, "", d) && !sub(/\/[^\/]*$$/, "", d)) d = "."; \
		if ($$2 ~ /_test\.go$$/ || $$2 ~ /(^|\/)testdata\//) { test[d] += $$1; tt += $$1 } else { src[d] += $$1; ts += $$1 }; dirs[d] = 1 } \
		END { printf "%7s %7s  %s\n", "source", "test", "package"; \
		for (d in dirs) printf "%7d %7d  %s\n", src[d], test[d], d | "sort -k3"; close("sort -k3"); \
		printf "%7d %7d  %s\n", ts, tt, "total" }'

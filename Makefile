# Targets mirror .github/workflows/ci.yml: every step of its build-test,
# smoke and coverage jobs runs one of these targets, so each gate and each
# smoke's asserts have one definition.

GO ?= go
COVER_PKGS := ./internal/...
COVER_FLOOR := 80

# All transient outputs (coverage profiles, smoke stores, analysis JSON) land
# under this gitignored directory, so a full `make ci` leaves `git status`
# clean.
SCRATCH := .scratch

.PHONY: all ci build test lint fmt-check vet vet-perfbench cross staticcheck cover fuzz bench-harness smoke smoke-sampling smoke-planner smoke-fleet smoke-extern docs-check clean

all: lint build test

# ci runs the same gates as the GitHub workflow; it must finish with a clean
# working tree (all droppings confined to $(SCRATCH)/ and other ignored paths).
ci: lint vet-perfbench cross staticcheck docs-check build test fuzz cover smoke smoke-sampling smoke-planner smoke-fleet smoke-extern
	@dirty=$$(git status --porcelain); if [ -n "$$dirty" ]; then \
		echo "make ci left the tree dirty:" >&2; echo "$$dirty" >&2; exit 1; fi
	@echo "ci OK (tree clean)"

build:
	$(GO) build ./...
	$(GO) build -o bin/energybench ./cmd/energybench

test:
	$(GO) test -race -count=1 ./...

lint: fmt-check vet

# CI runs fmt-check on the stable toolchain only, vet on every toolchain.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench/ is a nested module, so ./... above never compiles it; vet it on
# its own so a change to a name it calls cannot pass CI and break the
# benchmark.
vet-perfbench:
	cd perfbench && $(GO) vet ./...

# The non-Linux stubs (*_other.go) compile only for another GOOS, so vet the
# module for macOS and Windows too: a name they share with the Linux files
# cannot then change on Linux alone.
cross:
	GOOS=darwin $(GO) vet ./...
	GOOS=windows $(GO) vet ./...

# staticcheck is optional locally (CI installs it); skip with a notice when
# the binary isn't on PATH.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

cover:
	@mkdir -p $(SCRATCH)
	$(GO) test -coverprofile=$(SCRATCH)/cover.out $(COVER_PKGS)
	$(GO) tool cover -func=$(SCRATCH)/cover.out
	@pct=$$($(GO) tool cover -func=$(SCRATCH)/cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$pct%"; \
	awk -v p="$$pct" -v floor="$(COVER_FLOOR)" 'BEGIN { exit !(p + 0 >= floor) }' || { \
		echo "coverage $$pct% is below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# go test -fuzz takes one target per package, so each runs on its own.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCyclePermutation -fuzztime=10s ./internal/bench
	$(GO) test -run='^$$' -fuzz=FuzzReadersAgreeWithWriter -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzSidecar -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzManifest -fuzztime=10s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzCampaignParse -fuzztime=10s ./internal/campaign
	$(GO) test -run='^$$' -fuzz=FuzzParseKey -fuzztime=10s ./internal/harness
	$(GO) test -run='^$$' -fuzz=FuzzWorkerEnvelope -fuzztime=10s ./internal/harness
	$(GO) test -run='^$$' -fuzz=FuzzMockParams -fuzztime=10s ./internal/meter
	$(GO) test -run='^$$' -fuzz=FuzzPhases -fuzztime=10s ./internal/model
	$(GO) test -run='^$$' -fuzz=FuzzDecodeAddInput -fuzztime=10s ./cmd/energybench
	$(GO) test -run='^$$' -fuzz=FuzzIngest -fuzztime=10s ./internal/fleet

# Per-layer harness numbers, re-runnable without perfbench's traced re-drive:
# a whole in-process trial's cost and meter windows, one repetition's
# sampler start and stop, and a fleet agent's consecutive batches through
# its batch runner. A measurement, not a gate, so ci does not run it.
bench-harness:
	$(GO) test -run='^$$' -bench=BenchmarkInProcessOverhead -count=5 ./internal/harness
	$(GO) test -run='^$$' -bench=BenchmarkSamplerStartStop -count=5 ./internal/meter
	$(GO) test -run='^$$' -bench=BenchmarkAgentBatches -count=5 ./cmd/energybench

# The CI campaign smoke: subprocess executor, core-leasing scheduler,
# --parallel 4, store + resume, then the analysis pipeline over the store —
# plus the mock-counter leg (run --counters → analyze --activity=counters).
# The campaign must store its 8 trials and re-running it must be a resume
# no-op; scripts/counter_smoke_check.py asserts the counter fit.
smoke: build
	@mkdir -p $(SCRATCH)
	rm -f $(SCRATCH)/smoke-results.jsonl $(SCRATCH)/counter-smoke.jsonl
	./bin/energybench run --campaign testdata/smoke.yaml --progress > /dev/null
	test -s $(SCRATCH)/smoke-results.jsonl
	@count=$$(wc -l < $(SCRATCH)/smoke-results.jsonl); echo "stored $$count results"; \
		test "$$count" -eq 8 || { echo "expected 8 stored trials" >&2; exit 1; }
	./bin/energybench run --campaign testdata/smoke.yaml 2>$(SCRATCH)/resume.log > /dev/null
	grep -q "skipped 8 already-stored trials, 0 to run" $(SCRATCH)/resume.log
	./bin/energybench analyze --db=$(SCRATCH)/smoke-results.jsonl > /dev/null
	./bin/energybench compare --db=$(SCRATCH)/smoke-results.jsonl > /dev/null
	./bin/energybench run --specs=int-alu,chase-dram --threads=1,2 \
		--reps=2 --warmup=0 --iter-scale=0.05 \
		--counters=default --counter-backend=mock \
		--store=$(SCRATCH)/counter-smoke.jsonl > /dev/null
	./bin/energybench analyze --db=$(SCRATCH)/counter-smoke.jsonl --activity=counters > $(SCRATCH)/counter-analysis.json
	python3 scripts/counter_smoke_check.py $(SCRATCH)/counter-analysis.json
	@echo "smoke campaign OK ($$(wc -l < $(SCRATCH)/smoke-results.jsonl) stored results, $$(wc -l < $(SCRATCH)/counter-smoke.jsonl) with counters)"

# The CI sampling smoke: a time-resolved sweep against the mock meter with a
# planted two-phase power schedule, then the phase/throttle analysis over the
# stored series. Mirrors the sampling-smoke CI job; assertions live in
# scripts/sampling_smoke_check.py.
smoke-sampling: build
	@mkdir -p $(SCRATCH)
	rm -f $(SCRATCH)/sampling-smoke.jsonl
	./bin/energybench run --meter=mock --mock-watts=42 --mock-schedule=0.1:20 \
		--specs=int-alu --threads=1 --reps=2 --warmup=0 --iter-scale=60 \
		--sample-interval=10ms \
		--store=$(SCRATCH)/sampling-smoke.jsonl > /dev/null
	./bin/energybench analyze --db=$(SCRATCH)/sampling-smoke.jsonl --phases > $(SCRATCH)/sampling-phases.json
	python3 scripts/sampling_smoke_check.py $(SCRATCH)/sampling-smoke.jsonl $(SCRATCH)/sampling-phases.json BENCH_sampling.json
	@echo "sampling smoke OK (wrote BENCH_sampling.json)"

# The CI planner smoke: the adaptive (algo active) campaign vs the
# exhaustive sweep of the same planted-model grid. Mirrors the planner-smoke
# CI job; the acceptance assertions (≤ half the grid's trials, every
# coefficient within 5% of the exhaustive fit) live in
# scripts/planner_smoke_check.py, which writes BENCH_planner.json.
smoke-planner: build
	@mkdir -p $(SCRATCH)
	rm -f $(SCRATCH)/planner-active.jsonl $(SCRATCH)/planner-all.jsonl
	./bin/energybench run --campaign testdata/planner-active.yaml > $(SCRATCH)/planner-report.json
	./bin/energybench run --campaign testdata/planner-all.yaml > /dev/null
	./bin/energybench analyze --db=$(SCRATCH)/planner-all.jsonl > $(SCRATCH)/planner-all-analysis.json
	python3 scripts/planner_smoke_check.py $(SCRATCH)/planner-report.json $(SCRATCH)/planner-all-analysis.json BENCH_planner.json

# The CI extern smoke: fit the model on kernels against a planted mock
# model, run the bundled externstress binary as an external workload under
# the same meter (built into $(SCRATCH) by the campaign's build step), then
# analyze with --validate --roofline. scripts/extern_smoke_check.py asserts
# the workload rows landed under the |w:stress key dimension and aggregate
# MAPE < 5%, and writes BENCH_extern.json (the artifact CI publishes).
smoke-extern: build
	@mkdir -p $(SCRATCH)
	rm -f $(SCRATCH)/extern-smoke.jsonl
	./bin/energybench run --campaign testdata/extern-smoke.yaml --progress > /dev/null
	./bin/energybench store query --db=$(SCRATCH)/extern-smoke.jsonl --where workload=stress > $(SCRATCH)/extern-rows.json
	./bin/energybench analyze --db=$(SCRATCH)/extern-smoke.jsonl --validate --roofline > $(SCRATCH)/extern-analysis.json
	python3 scripts/extern_smoke_check.py $(SCRATCH)/extern-analysis.json $(SCRATCH)/extern-rows.json BENCH_extern.json

# The CI fleet smoke: a coordinator plus two local agents run the same
# campaign the single-host smoke uses, and the merged store's key set
# (host-stripped) must equal the serial run's key set exactly. Assertions
# live in scripts/fleet_smoke_check.py, which writes BENCH_fleet.json.
smoke-fleet: build
	@mkdir -p $(SCRATCH)
	./scripts/fleet_smoke.sh

# Every internal package must carry its package comment in a doc.go, so
# `go doc` has one canonical place to find it (CI's build-test job runs
# this target).
docs-check:
	@missing=""; for d in internal/*/; do \
		[ -f "$$d/doc.go" ] || missing="$$missing $$d"; done; \
	if [ -n "$$missing" ]; then \
		echo "internal packages missing doc.go:$$missing" >&2; exit 1; fi
	@echo "docs-check OK (every internal package has a doc.go)"

clean:
	rm -rf bin $(SCRATCH) cover.out BENCH_sampling.json BENCH_planner.json BENCH_fleet.json BENCH_extern.json smoke-results.jsonl counter-smoke.jsonl counter-analysis.json

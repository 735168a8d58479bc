# Developer entry points mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build fmt-check lint test race check vet-fixtures model-smoke sched-stress soak-smoke soak serve-smoke serve-stress serve-bench

all: check

build:
	$(GO) build ./...

# Fails, listing them, when gofmt would rewrite any file (the CI step of
# the same name).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "$$out"; exit 1; fi

# lint = go vet + the repository's own proof-discipline analyzers
# (atomicmix, atomicvalue, lockpath, stampwidth, hbpublish, linpoint,
# telemhook, padlayout; see DESIGN.md §7 and §11).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/dequevet ./...

# The analyzers' own test suites: per-analyzer `// want` fixtures under
# internal/analysis/*/testdata plus the driver's seeded-violation cases.
vet-fixtures:
	$(GO) test ./internal/analysis/... ./cmd/dequevet

# Every test at one and two processors, the scheduler's, the arena's,
# the deques', the array and Chase–Lev cores', the telemetry rows', the
# operation stamp's, the DCAS lanes' and the server's tests race-instrumented
# at both (the CI steps of the same names), then an arm64 vet and build so
# the stamp's non-amd64 fallback keeps compiling, then one iteration of
# every benchmark family in bench_test.go so none of them rots, then
# perfbench (its own module, which ./... does not reach) vetted and tested
# against this checkout's API.
test:
	$(GO) test -cpu 1,2 ./...
	$(GO) test -race -cpu 1,2 ./sched/...
	$(GO) test -race -cpu 1,2 ./internal/arena/... ./deque/... ./internal/core/arraydeque/... ./internal/core/chaselev/... ./internal/telemetry/... ./internal/metrics/... ./internal/dcas/... ./serve/...
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...
	$(GO) test -run '^$$' -bench . -benchtime 1x -cpu 1,2 .
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race -short ./...

# The array algorithm's model check with each DCAS expanded into
# dcas.EndLock's steps, at the CI smoke bound (2 threads) and then the
# full 3-thread certificate (EXPERIMENTS.md §1), as CI runs them.
model-smoke:
	$(GO) run ./cmd/dequemodel -algo array -dcas endlock -threads 2
	$(GO) run ./cmd/dequemodel -algo array -dcas endlock -threads 3

# Randomized scheduler stress certification (bounded; CI runs 300
# race-instrumented, the full certification is -sched-runs 10000).
sched-stress:
	$(GO) run -race ./cmd/dequestress -sched -sched-runs 300

# Memory-bounded soak smoke (CI-required): 90 seconds of race-
# instrumented churn split across every backend × workload cell, with
# quiescent conservation checks at every sample and a full-drain leak
# audit — followed by the known-positive: the seeded LFRC leak (every
# 64th release dropped) must be DETECTED or the step fails.  Artifacts
# (occupancy timeline CSV + flight dump) are written on violation; see
# EXPERIMENTS.md SOAK.
soak-smoke:
	$(GO) run -race ./cmd/dequesoak -d 90s
	$(GO) run -race ./cmd/dequesoak -certify-leak -d 5s

# The full long-haul run (not in CI — run before a release): an hour of
# uninstrumented churn per the same matrix, then the leak certification.
soak:
	$(GO) run ./cmd/dequesoak -d 1h
	$(GO) run ./cmd/dequesoak -certify-leak -d 30s

# Serve smoke (CI-mirrored): dequeserve + dequeload race-instrumented,
# SIGTERM delivered mid-load; dequeserve exits nonzero if the drain
# violates the admission conservation laws.  Under the load, dequetop
# must parse /metrics and print the dequeserve.sched row.
serve-smoke:
	$(GO) build -race -o /tmp/dequeserve ./cmd/dequeserve
	$(GO) build -race -o /tmp/dequeload ./cmd/dequeload
	$(GO) build -o /dev/null ./cmd/dequetop
	rm -f /tmp/serve.addr; \
	/tmp/dequeserve -listen 127.0.0.1:0 -addr-file /tmp/serve.addr -drain 10s & \
	SERVE_PID=$$!; \
	for i in $$(seq 100); do [ -s /tmp/serve.addr ] && break; sleep 0.1; done; \
	/tmp/dequeload -url "http://$$(cat /tmp/serve.addr)/jobs" -mode open -rate 300 \
	  -duration 6s -kind fib -n 25 -verify -tenants free:1,gold:3 & \
	LOAD_PID=$$!; \
	sleep 1; \
	$(GO) run ./cmd/dequetop -once -url "http://$$(cat /tmp/serve.addr)/metrics" > /tmp/dequetop.txt; \
	TOP=$$?; cat /tmp/dequetop.txt; \
	grep -q '^dequeserve\.sched ' /tmp/dequetop.txt || TOP=1; \
	sleep 2; kill -TERM $$SERVE_PID; \
	wait $$LOAD_PID || true; wait $$SERVE_PID && [ $$TOP -eq 0 ]

# Randomized serve fault certification (CI runs 200 race-instrumented;
# the full certificate is -serve-runs 1000).
serve-stress:
	$(GO) run -race ./cmd/dequestress -serve -serve-runs 200

# Serve overload sweep: closed-loop capacity calibration, then open-loop
# load at 0.5C/0.9C/1.5C per backend, printed as two tables
# (EXPERIMENTS.md SERVE).
serve-bench:
	$(GO) run ./cmd/dequebench -duration 2s

check: build fmt-check lint test race model-smoke

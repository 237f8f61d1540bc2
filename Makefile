GO ?= go

.PHONY: build test verify bench stress

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the extended check: tier-1 build+test plus gofmt, vet, a
# cross-platform vet of udpnet (linux/arm64 takes the sendmmsg path with
# std's syscall number, darwin the per-datagram fallback, so neither the
# per-arch constant nor the fallback file can rot), a race pass over the
# concurrent packages — the data path (enclave, edenvm, transport), the
# control plane (controller, ctlproto), the trial-parallel experiment
# harness, the observability layer (telemetry, metrics, trace) whose
# snapshot/span paths are read concurrently by the ops endpoint, and the
# real-socket node (udpnet) — a single-iteration bench smoke so benchmark
# code cannot rot,
# a flight-recorder smoke: one recorded fig9 iteration that fails if the
# series is empty, non-monotonic, or disagrees with the terminal counter
# snapshot, a churn smoke: one small delta-distribution round over a real
# TCP agent fleet, under -race, with the same flight-series validation —
# exiting nonzero unless every agent converges and the churn-phase resync
# cost tracked the delta size rather than the policy size — a flows
# smoke: a 2k -> 20k flow-state ramp that fails unless p99 Process
# latency stays flat and idle reclamation is exact (final live count is
# the hot set, zero capacity evictions) — a differential-fuzz smoke:
# a few seconds of FuzzDifferential cross-checking the closure-compiled
# VM backend against the interpreter on generated programs, plus a few
# seconds of FuzzCodec hammering the udpnet wire decoder with malformed
# datagrams — and a loopback smoke: the examples/udp quickstart running
# three OS processes (controller + two edend) exchanging live UDP
# traffic under controller-pushed policy, checked via their ops
# endpoints.
verify: build
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./internal/udpnet/
	GOOS=darwin $(GO) vet ./internal/udpnet/
	$(GO) test ./...
	$(GO) test -race ./internal/enclave/ ./internal/edenvm/ ./internal/transport/ ./internal/controller/ ./internal/ctlproto/ ./internal/experiments/ ./internal/netsim/ ./internal/telemetry/ ./internal/metrics/ ./internal/trace/ ./internal/udpnet/
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...
	$(GO) test -run=NONE -fuzz=FuzzDifferential -fuzztime=5s ./internal/edenvm/
	$(GO) test -run=NONE -fuzz=FuzzCodec -fuzztime=5s ./internal/udpnet/
	$(GO) run ./cmd/edenbench -exp fig9 -runs 1 -ms 30 -parallel 1 -record 5ms -record-check > /dev/null
	$(GO) run -race ./cmd/edenbench -exp churn -churn-agents 64 -churn-rounds 1 -record 5ms -record-check > /dev/null
	$(GO) run ./cmd/edenbench -exp flows -flows-start 2000 -flows-peak 20000 -record 5ms -record-check > /dev/null
	sh examples/udp/quickstart.sh

bench:
	$(GO) test -bench=. -benchtime=1x ./...

# stress runs the tier-1 suite 20 times while a second test binary (the
# experiments suite, looping) loads the CPU. Under contention, goroutines
# run late: a test that reads a counter or a ring before waiting for the
# event that fills it fails here long before it flakes in CI.
stress:
	@mkdir -p .stress
	$(GO) test -c -o .stress/load.test ./internal/experiments/
	@(cd internal/experiments && exec ../../.stress/load.test -test.count=100000 -test.timeout=2h >/dev/null 2>&1) & load=$$!; \
	trap 'kill $$load 2>/dev/null' EXIT INT TERM; \
	$(GO) test -count=20 -timeout=1h ./...

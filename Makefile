GO ?= go

.PHONY: check build test vet fmt-check bench-module race crosscheck crosscheck-symbolic aot-smoke obsd-smoke serve-smoke bench fuzz size stats serve clean

## check: the full gate — vet, gofmt cleanliness, build, the
## race-enabled test suite (the chain executor's stress under
## contention included), the cross-backend differential suites (isl
## backends and the symbolic detection algebra), the AOT-backend smoke
## (emit, compile, execute, compare against the interpreter), the
## live-telemetry smoke, the detection-service smoke, and the nested
## benchmark module (which tier-1 does not descend into).
check: vet fmt-check build bench-module race crosscheck crosscheck-symbolic aot-smoke obsd-smoke serve-smoke

## crosscheck: prove the columnar isl backend (default) and the legacy
## hash-map backend (-tags islhashmap) are observably identical — the
## model-based isl property tests plus bit-identical detection digests
## against the committed goldens — under the race detector.
crosscheck:
	$(GO) vet -tags islhashmap ./...
	$(GO) test -race ./internal/isl/ ./internal/isl/sym/ ./internal/core/
	$(GO) test -race -tags islhashmap ./internal/isl/ ./internal/isl/sym/ ./internal/core/

## crosscheck-symbolic: prove the symbolic (constraint-form) detection
## backend is bit-identical to the explicit path — closed-form results
## vs enumerated relations on the in-fragment suite, dispatch-with-
## fallback over the full cross-backend suite, and the randomized
## lexmin/lexmax property tests against both isl backends — under the
## race detector.
crosscheck-symbolic:
	$(GO) test -race -run 'Symbolic|UnknownBackend|LexOptProperty' ./internal/core/ ./internal/isl/sym/
	$(GO) test -race -tags islhashmap -run 'Symbolic|UnknownBackend|LexOptProperty' ./internal/core/ ./internal/isl/sym/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## fmt-check: fail if any file is not gofmt-clean (prints the
## offenders; run `gofmt -w .` to fix). .bench_build/ holds what the
## benchmark leaves behind, emitted programs included, and is not ours
## to format.
fmt-check:
	@unformatted="$$(gofmt -l . | grep -v '^\.bench_build/' || true)"; \
	if [ -n "$$unformatted" ]; then \
		echo "fmt-check: files need gofmt -w:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

## bench-module: vet and short-test the nested module benchmark/
## (`repro/benchmark`, replace repro => ../). `go build ./... && go test
## ./...` stops at its go.mod, yet its traced pass (benchmark/layers)
## calls deps.Analyze, core.Detect, schedtree.Build, codegen.Compile and
## codegen.CompileForEmission by name — this is the check that a change
## to those signatures has not stopped the repository benchmark from
## building.
bench-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test -short ./...

test:
	$(GO) test ./...

## race: the whole suite under the race detector, then the chain
## executor's equivalence and termination stress again at 2 and 4 CPUs
## — claims, yields and parking under contention, bit-identical to
## sequential on the Table 9 corpus, shifted random SCoPs and random
## DAGs.
race:
	$(GO) test -race ./...
	$(GO) test -race -cpu 2,4 -run 'Hybrid|Chain|CoarsePlanSound' ./internal/runtime/ ./internal/codegen/ ./internal/exec/ ./polypipe/

## bench: regenerate the paper's evaluation numbers plus the detection
## micro-benchmarks (serial vs parallel core.Detect), the compile path's
## time and allocations (codegen.Compile + BuildIR) and the synthetic
## bodies' ns per point (see docs/PERFORMANCE.md). Gated end-to-end
## performance numbers come from `bash benchmark/run.sh`
## (BENCHMARK.json), not from this target.
bench:
	$(GO) test -bench . -benchmem .
	$(GO) test -bench=Detect -benchmem -run='^$$' ./internal/core/
	$(GO) test -bench=Compile -benchmem -run='^$$' ./internal/codegen/
	$(GO) test -bench=SyntheticBody -benchmem -run='^$$' ./internal/interp/

## aot-smoke: the AOT backend's golden end-to-end gate — emit a
## standalone Go program for every examples/dsl/*.loop (pass pipeline
## on and off), `go build` it, execute it, and require the result hash
## to match the in-process interpreter bit for bit. Skipped under
## `go test -short`.
aot-smoke:
	$(GO) test -run 'TestAOTSmoke|TestEmittedDifferential' -count=1 . ./internal/gogen/

## obsd-smoke: end-to-end live-telemetry check — start
## pipeline-stats -serve on a random port, scrape /metrics and
## /healthz (fail on non-200 or empty exposition), require >= 2
## sampler entries in /debug/series, then SIGINT for a clean shutdown.
obsd-smoke:
	GO="$(GO)" ./scripts/obsd-smoke.sh

## serve-smoke: end-to-end detection-service check — start pipelined
## with a disk cache on a random port, POST an enveloped SCoP, refuse a
## bare legacy document, scrape the serve.* metrics, SIGTERM for a
## graceful drain, then restart over the same cache directory and
## require the disk tier to answer (cache_disk_hits >= 1).
serve-smoke:
	GO="$(GO)" ./scripts/serve-smoke.sh

## fuzz: run the native fuzz target on the SCoP wire decoder
## (scop.FromJSON) for 30 seconds — it must never panic, and every
## document it accepts must survive a ToJSON round trip with the same
## fingerprint. `go test ./...` runs only the seed corpus.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzFromJSON -fuzztime 30s ./internal/scop/

## size: the two numbers the tree's size budget tracks — non-test Go
## lines outside the nested benchmark module and its build directory,
## and the number of packages directly under internal/.
size:
	@echo "non-test Go lines: $$(find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)"
	@echo "internal packages: $$(ls -d internal/*/ | wc -l)"

## stats: one observed run with the full breakdown + trace.json.
stats:
	$(GO) run ./cmd/pipeline-stats -kernel listing3 -n 48 -workers 4

## serve: run continuously with the embedded introspection server on
## :9090 (curl localhost:9090/metrics for a live Prometheus scrape).
serve:
	$(GO) run ./cmd/pipeline-stats -serve :9090 -kernel P4 -n 16

clean:
	rm -f trace.json

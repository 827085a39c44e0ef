GO ?= go

.PHONY: all tier1 vet build test race roundtrip chaos fuzz perfbench bench serve loc clean

all: tier1

# tier1 is the repository's gating check: vet, build, full test suite
# under the race detector, the persistence round-trip gate, the
# fault-injection chaos matrix, a short randomised fuzz pass over the
# input gates, and the benchmark module's own vet and tests (it imports
# internal/, so a change that breaks it fails here). Performance is
# measured by `bash perfbench/run.sh` (BENCHMARK.json), which reports
# each workload end to end and per layer; tier1 does not time anything.
tier1: vet build race roundtrip chaos fuzz perfbench

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# roundtrip gates the table codec: tablegen → save → load → compare
# bit for bit against an in-memory build, plus the cache/codec
# persistence suites.
roundtrip:
	$(GO) test -run 'RoundTrip|Cache|Load|SaveFile' ./cmd/tablegen ./internal/table

# chaos runs the fault-injection matrix under the race detector:
# injected errors/latency/panics at every instrumented point, retry
# exhaustion, cancellation promptness and leak-freedom, cache
# corruption/degradation, divergence guards, exit-code mapping, the
# daemon's overload paths (shed, deadline, breaker, drain, evict race),
# and the checkpoint/resume drills (torn writes and bitrot at every
# byte, kill-during-rename, SIGKILL-and-resume with bit-identity,
# cancellation inside a checkpoint write or a parallel stage batch).
# The subprocess tests (the daemon's signal and drain drills, the
# treesim SIGKILL-and-resume drill) and the tree walk's parallel-vs-
# serial bit-identity test then run 20 times each, so a timing race or
# a result that depends on scheduling shows up here instead of as an
# occasional tier-1 failure.
chaos:
	$(GO) test -race -timeout 10m \
		-run 'Fault|Chaos|Cancel|Panic|Diverge|Retry|Injected|Transient|Degrad|Sign|Exit|NonFinite|Singular|IllCondition|Validation|Breaker|Shed|Admit|Deadline|Drain|Gone|Healthz|EvictWhileFilling|Torn|Bitrot|KillDuringRename|JobKeyMismatch|KillAndResume|Resume|CheckpointAudit|CheckpointSaveFailure' \
		./internal/fault ./internal/table ./internal/core ./internal/sim ./internal/linalg ./internal/cliobs ./internal/serve ./internal/ckpt ./internal/clocktree ./cmd/treesim
	$(GO) test -count=20 -timeout 10m \
		-run 'SignalExitCodes|SIGTERMDrainsInFlightRequests|HealthzDuringDrain|KillAndResumeBitIdenticalSkew|ParallelWalkMatchesSerialOracle' \
		./cmd/rlcxd ./cmd/treesim ./internal/clocktree

# fuzz gives every native fuzz target a short randomised budget on top
# of the committed seed corpora (which already run as plain test cases
# in `make test`/`make race`). go only accepts one -fuzz pattern per
# invocation, so each target gets its own run.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^FuzzLoadFile$$' -fuzz '^FuzzLoadFile$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzLibraryFileName$$' -fuzz '^FuzzLibraryFileName$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzConfigValidate$$' -fuzz '^FuzzConfigValidate$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzCodecV3LoadFile$$' -fuzz '^FuzzCodecV3LoadFile$$' -fuzztime $(FUZZTIME) ./internal/table
	$(GO) test -run '^FuzzGridEvalReference$$' -fuzz '^FuzzGridEvalReference$$' -fuzztime $(FUZZTIME) ./internal/spline
	$(GO) test -run '^FuzzGeometryValidate$$' -fuzz '^FuzzGeometryValidate$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^FuzzNewTree$$' -fuzz '^FuzzNewTree$$' -fuzztime $(FUZZTIME) ./internal/clocktree

# perfbench vets and tests the benchmark module (perfbench/, its own Go
# module built against this checkout) without running the benchmark.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench runs the full experiment benchmark suite (slow).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$'

# serve runs the extraction daemon on ADDR (override: make serve
# ADDR=:8650 CACHE=/var/cache/rlcx) with the content-addressed table
# cache, ready for rlcxload or a CTS flow's HTTP client.
ADDR ?= 127.0.0.1:8650
CACHE ?= .rlcx-cache
serve:
	$(GO) run ./cmd/rlcxd -addr $(ADDR) -cache $(CACHE)

# loc prints the size metric ROADMAP tracks: non-test Go lines outside
# the benchmark module (perfbench/) and its build directory.
loc:
	@find . \( -path ./perfbench -o -path ./.bench_build -o -path ./.git \) -prune \
		-o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l


# clean removes the benchmark's build directory (perfbench/run.sh).
clean:
	rm -rf .bench_build

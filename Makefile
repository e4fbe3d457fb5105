GO ?= go

.PHONY: all build vet test race verify bench docs fuzz lint debugcheck chaos

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The paper rules whose violations no other test catches (DESIGN.md
# §10): float-eq and index-only over the default and debugcheck builds,
# and the audit of every //molint:ignore directive.
lint:
	$(GO) test ./internal/lint

# Run the paper-kernel tests with the runtime invariant assertions
# compiled in (sliced-representation and halfsegment-order checks, and
# the executor re-running the kernels on every pair its filter skips),
# and the ingest tests, whose epochs hand the appender's units to
# mapping.FromOrdered and whose publishes recompute every chunk cube
# Store.Apply kept incrementally from its units.
debugcheck:
	$(GO) test -tags=debugcheck ./internal/mapping ./internal/spatial ./internal/moving ./internal/db ./internal/ingest

# The tier-1 recipe (ROADMAP.md) plus the robustness checks: build,
# vet, race-enabled tests, every benchmark body of the root package and
# of internal/... once, the debugcheck tests, and the fuzz smoke runs
# (scripts/fuzz.sh).
verify:
	./scripts/verify.sh

# Chaos: the seeded fleet simulator (cmd/mosim, DESIGN.md §13) drives
# the real HTTP stack through every chaos profile, cross-checking each
# response against the offline oracle under the race detector; `race`
# and verify run the same tests. Longer runs: go run ./cmd/mosim.
chaos:
	$(GO) test -race -count=1 ./internal/sim/

# Every fuzz target (the list is scripts/fuzz.sh), 60 s each: longer
# than the verify smoke runs.
fuzz:
	./scripts/fuzz.sh 60s

# The paper's §4/§5 complexity shapes (EXPERIMENTS.md E1–E7). The served
# stack is measured by `bash bench/run.sh` (bench/README.md).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

docs:
	$(GO) run ./cmd/motables > docs/tables.txt.tmp && mv docs/tables.txt.tmp docs/tables.txt
	$(GO) run ./cmd/mofigures -svg docs/figures

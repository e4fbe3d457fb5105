#!/bin/sh
# Tier-1 verify recipe (ROADMAP.md): everything must build, pass vet,
# and pass the full test suite under the race detector.
set -eu

cd "$(dirname "$0")/.."

echo "==> go.mod go directive (root must equal bench/go.mod's)"
root_go=$(sed -n 's/^go //p' go.mod) bench_go=$(sed -n 's/^go //p' bench/go.mod)
if [ "$root_go" != "$bench_go" ]; then
    echo "verify: FAIL root go.mod says go $root_go, bench/go.mod says go $bench_go: bench/go.mod is frozen and replaces the root, so a newer root directive breaks 'bash bench/run.sh' with \"updates to go.mod needed\"" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> molint (static analysis: default, faultinject, debugcheck variants)"
go run ./cmd/molint ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> bench module (own go.mod, so ./... above skips it: vet + tests against this tree)"
(cd bench && go vet ./... && go test ./...)

echo "==> paper benchmarks, one iteration each (bench_test.go bodies must execute)"
go test -run '^$' -bench . -benchtime 1x .

echo "==> index, ingest, db, moving, server and live benchmarks, one iteration each (a broken BenchmarkBuild, BenchmarkPipelineTick, BenchmarkTemplateA or BenchmarkAtInstantBody must not wait for TestAllocBudgets; BenchmarkRegistryDrain runs nowhere else)"
go test -run '^$' -bench . -benchtime 1x ./internal/index ./internal/ingest ./internal/db ./internal/moving ./internal/server ./internal/live

echo "==> tests excluded from the race build (//go:build !race: allocation budgets, the float writer's encoding/json oracle)"
# Every Test function in a !race file, collected by name so a new one
# cannot be missed: the TestAllocBudgets tables (the whole allocation
# contract) and TestDigits8 / TestJSONFloatRandomSweep.
norace=$(grep -l '^//go:build !race' $(find internal -name '*_test.go') |
    xargs sed -n 's/^func \(Test[A-Za-z0-9_]*\)(.*/\1/p' | sort -u | paste -sd '|' -)
go test -run "^($norace)\$" ./internal/...

echo "==> go test -tags=debugcheck (runtime invariant assertions)"
go test -tags=debugcheck ./internal/mapping ./internal/spatial ./internal/moving ./internal/db

echo "==> go build -tags=faultinject ./..."
go build -tags=faultinject ./...

echo "==> go vet -tags=faultinject ./..."
go vet -tags=faultinject ./...

echo "==> fuzz smoke: FuzzWALDecode (10s)"
go test -run='^$' -fuzz=FuzzWALDecode -fuzztime=10s ./internal/ingest

echo "==> fuzz smoke: FuzzReplayMatchesLive (10s; a pipeline reopened on its log encodes byte-identically to the live store)"
go test -run='^$' -fuzz=FuzzReplayMatchesLive -fuzztime=10s -fuzzminimizetime=1s ./internal/ingest

echo "==> fuzz smoke: FuzzEpochAtInstant (10s; the epoch's starts-column search vs baseline's linear scan)"
go test -run='^$' -fuzz=FuzzEpochAtInstant -fuzztime=10s -fuzzminimizetime=1s ./internal/ingest

echo "==> fuzz smoke: FuzzMPointRoundTrip (10s; storage mpoint codec never panics, accepted bytes re-encode identically)"
go test -run='^$' -fuzz=FuzzMPointRoundTrip -fuzztime=10s -fuzzminimizetime=1s ./internal/storage

echo "==> fuzz smoke: FuzzRefine (10s; streaming sweep vs the sort-based oracle)"
go test -run='^$' -fuzz=FuzzRefine -fuzztime=10s ./internal/temporal

echo "==> fuzz smoke: FuzzFilterConservative (10s; the join filters may only exclude what the kernels answer false for)"
go test -run='^$' -fuzz=FuzzFilterConservative -fuzztime=10s -fuzzminimizetime=1s ./internal/moving

echo "==> fuzz smoke: FuzzDynamic (10s; index ladder vs linear scan and brute-force k-NN)"
go test -run='^$' -fuzz=FuzzDynamic -fuzztime=10s ./internal/index

echo "==> fuzz smoke: FuzzIngestDecode (10s; observation scanner vs encoding/json)"
go test -run='^$' -fuzz=FuzzIngestDecode -fuzztime=10s -fuzzminimizetime=1s ./internal/server

echo "==> fuzz smoke: FuzzQueryParams (10s; RawQuery scanner vs url.ParseQuery, read routes never 5xx)"
go test -run='^$' -fuzz=FuzzQueryParams -fuzztime=10s -fuzzminimizetime=1s ./internal/server

echo "==> fuzz smoke: FuzzJSONFloat (10s; Schubfach float writer vs json.Marshal, bit pattern by bit pattern)"
go test -run='^$' -fuzz=FuzzJSONFloat -fuzztime=10s ./internal/server

echo "==> chaos (seeded simulator vs oracle, all profiles, -race -tags=faultinject)"
go test -race -tags=faultinject -count=1 ./internal/sim/

echo "verify: OK"

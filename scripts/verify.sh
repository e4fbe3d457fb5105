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

echo "==> scripts/fuzz.sh lists every fuzz target"
# Every Fuzz function in the tree, collected by package and name the way
# the !race tests are below, so a new target cannot miss the smoke runs.
unlisted=$(grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' . |
    sed 's|^\(.*\)/[^/]*:func |\1 |' | sort -u |
    while read -r pkg target; do
        grep -q "^smoke $pkg $target " scripts/fuzz.sh || echo "$pkg $target"
    done)
if [ -n "$unlisted" ]; then
    echo "verify: FAIL fuzz targets missing from scripts/fuzz.sh:" $unlisted >&2
    exit 1
fi

echo "==> gofmt -l (every Go file in the tree, bench/ and lint fixtures included)"
# .bench_build/ is bench/run.sh's build directory, not source.
unformatted=$(find . \( -path ./.bench_build -o -path ./.git \) -prune -o -name '*.go' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "verify: FAIL files not gofmt-formatted (run gofmt -w on them):" $unformatted >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> Loader singleflight, 200 runs under -race at 1 and 4 Ps (4 Ps, more than a small CI runner has cores, so the stale-miss interleavings run too)"
go test -race -run '^TestLoader' -count=200 -cpu 1,4 ./internal/cache

echo "==> bench module (own go.mod, so ./... above skips it: vet + tests against this tree)"
(cd bench && go vet ./... && go test ./...)

echo "==> paper benchmarks, one iteration each (bench_test.go bodies must execute)"
go test -run '^$' -bench . -benchtime 1x .

echo "==> every internal benchmark, one iteration each (a broken BenchmarkBuild, BenchmarkPipelineTick, BenchmarkTemplateA or BenchmarkAtInstantBody must not wait for TestAllocBudgets; BenchmarkRegistryDrain runs nowhere else)"
go test -run '^$' -bench . -benchtime 1x ./internal/...

echo "==> tests excluded from the race build (//go:build !race: allocation budgets, the float writer's encoding/json oracle, the paper rules)"
# Every Test function in a !race file, collected by name so a new one
# cannot be missed: the TestAllocBudgets tables (the whole allocation
# contract), TestDigits8 / TestJSONFloatRandomSweep, and internal/lint's
# TestPaperRules (float-eq, index-only and the molint:ignore audit over
# the default and debugcheck builds) with its fixture tests.
norace=$(grep -l '^//go:build !race' $(find internal -name '*_test.go') |
    xargs sed -n 's/^func \(Test[A-Za-z0-9_]*\)(.*/\1/p' | sort -u | paste -sd '|' -)
go test -run "^($norace)\$" ./internal/...

# internal/ingest: every publish recomputes from the units the chunk
# cubes Store.Apply kept incrementally and panics on a difference.
# internal/db: every pair a join guard answers, and every pair the row
# loop's candidate test refuses, is re-run through the bound expression
# the guard stands for (the same nodes that evaluate every other row),
# and a disagreement panics.
echo "==> go test -tags=debugcheck (runtime invariant assertions)"
go test -tags=debugcheck ./internal/mapping ./internal/spatial ./internal/moving ./internal/db ./internal/ingest

./scripts/fuzz.sh 10s

echo "verify: OK"

#!/bin/sh
# Fuzz smokes: every native fuzz target in the repository, one after
# another, each for <fuzztime> (default 10s). scripts/verify.sh runs it
# at 10s and `make fuzz` at 60s; this file is the one list of targets,
# and scripts/verify.sh fails on a Fuzz function it does not list.
# Targets that stall while minimising a failure get -fuzzminimizetime=1s.
#
#   scripts/fuzz.sh [fuzztime]
set -eu

cd "$(dirname "$0")/.."
fuzztime=${1:-10s}

# smoke <package> <target> <what it checks> [extra go test flags]
smoke() {
    pkg=$1 target=$2 what=$3
    shift 3
    echo "==> fuzz smoke: $target ($fuzztime; $what)"
    go test -run='^$' -fuzz="$target" -fuzztime="$fuzztime" "$@" "$pkg"
}

smoke ./internal/ingest FuzzWALDecode "WAL decoders never panic, the recovery scan never fails open"
smoke ./internal/ingest FuzzReplayMatchesLive "a pipeline reopened on its log encodes byte-identically to the live store" -fuzzminimizetime=1s
smoke ./internal/ingest FuzzEpochAtInstant "the epoch's starts-column search vs baseline's linear scan" -fuzzminimizetime=1s
smoke ./internal/ingest FuzzEpochWindow "chunk-indexed window and k-NN vs a full unit scan and brute force over baseline" -fuzzminimizetime=1s
smoke ./internal/storage FuzzMPointRoundTrip "storage mpoint codec never panics, accepted bytes re-encode identically" -fuzzminimizetime=1s
smoke ./internal/temporal FuzzRefine "Refine's streaming sweep vs the sort-based oracle, and Seek vs a linear scan"
smoke ./internal/baseline FuzzURealExtremum "a ureal's min/max and value range, limits at ±∞ and closure flags included, vs an exact math/big rational evaluator"
smoke ./internal/baseline FuzzMRegionAtInstantMatchesBaseline "a moving region's binary-searched atinstant vs the baseline's linear scan" -fuzzminimizetime=1s
smoke ./internal/geom FuzzOrientMatchesReference "Orient's Hypot-free fast path vs the full tolerance test it skips, bit for bit"
smoke ./internal/units FuzzSometimesInsideMatchesKernel "the sometimes-inside predicate kernel vs the any-true of the inside kernel's units"
smoke ./internal/db FuzzAggregateMatchesNaive "the executor's grouping branch vs a naive pairwise fold" -fuzzminimizetime=1s
smoke ./internal/db FuzzLexMatchesReference "the lexer vs the allocating lexer it replaced: tokens, errors and Canonical bytes"
smoke ./internal/db FuzzPrepareMatchesRelex "a prepared statement's tokens vs lexing its canonical spelling again"
smoke ./internal/db FuzzQueryMatchesNaive "the executor's bound expressions vs a naive nested loop with its own evaluator, its WHERE chains mixing one- and two-relation comparisons with conjuncts that can fail" -fuzzminimizetime=1s
smoke ./internal/moving FuzzFilterConservative "the join filters may only exclude what the kernels answer false for; the fused walks answer what the kernels answer" -fuzzminimizetime=1s
smoke ./internal/moving FuzzWalkPieces "the join walks visit exactly Refine's common pieces, in order, building the partition's piece for every pair the stored boxes leave" -fuzzminimizetime=1s
smoke ./internal/moving FuzzLiftedMatchesRefine "Distance, InsideCtx, IntersectsCtx, LessThan and AtPeriods vs their unit kernels run over Refine's common pieces" -fuzzminimizetime=1s
smoke ./internal/moving FuzzAreaExtremaMatchBuilt "the fused max/min of a moving region's area vs Area().Max()/Min() of the built moving real, bit for bit" -fuzzminimizetime=1s
smoke ./internal/index FuzzDynamic "index ladder vs linear scan and brute-force k-NN"
smoke ./internal/server FuzzIngestDecode "observation scanner vs encoding/json" -fuzzminimizetime=1s
smoke ./internal/server FuzzQueryParams "RawQuery scanner vs url.ParseQuery, read routes never 5xx" -fuzzminimizetime=1s
smoke ./internal/server FuzzJSONFloat "Schubfach float writer vs json.Marshal, bit pattern by bit pattern"

#!/bin/sh
# Paired layer benchmark of two checkouts: builds PKG's test binary in
# OLD_DIR and in NEW_DIR once each, runs the benchmarks matching REGEX
# N times (default 10) a side at -cpu 1, alternating which side runs
# first, and prints per benchmark each side's median and quartiles of
# ns/op, new/old of the medians, the parent's interquartile range over
# its median, and in how many pairs the new side was faster (ties count
# for neither). A gain is claimed when the new side wins at least nine
# pairs in ten and the medians differ by more than the old side's
# interquartile range.
#
#   scripts/benchpairs.sh OLD_DIR NEW_DIR PKG REGEX [N]
#   scripts/benchpairs.sh ../parent . ./internal/db 'Template[AB]$'
#
# PKG is a package path relative to each checkout's root (./internal/db).
# The binaries and the raw ns/op lines go to a temporary directory that
# is removed on exit.
set -eu

if [ $# -lt 4 ] || [ $# -gt 5 ]; then
    echo "usage: scripts/benchpairs.sh OLD_DIR NEW_DIR PKG REGEX [N]" >&2
    exit 2
fi
old=$(cd "$1" && pwd) new=$(cd "$2" && pwd) pkg=$3 regex=$4 n=${5:-10}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in old new; do
    eval dir=\$$side
    echo "==> building $pkg test binary in $dir" >&2
    (cd "$dir" && go test -c -o "$work/$side.test" "$pkg")
done

# run SIDE PAIR: one run of SIDE's binary from its package directory,
# appending "name pair side ns" lines to $work/ns.
run() {
    eval dir=\$$1
    (cd "$dir/$pkg" && "$work/$1.test" -test.run '^$' -test.bench "$regex" -test.cpu 1 -test.timeout 30m) |
        awk -v pair="$2" -v side="$1" '$1 ~ /^Benchmark/ { for (i = 3; i < NF; i++) if ($(i+1) == "ns/op") print $1, pair, side, $i }' >>"$work/ns"
}

: >"$work/ns"
i=1
while [ "$i" -le "$n" ]; do
    echo "==> pair $i of $n" >&2
    if [ $((i % 2)) -eq 1 ]; then
        run old "$i"
        run new "$i"
    else
        run new "$i"
        run old "$i"
    fi
    i=$((i + 1))
done

sort -k1,1 -k3,3 -k4,4g "$work/ns" | awk '
function q(side, p,   k, h) { # linear interpolation between order statistics
    k = (cnt[side] - 1) * p
    h = int(k)
    return h + 1 < cnt[side] ? v[side, h] + (k - h) * (v[side, h + 1] - v[side, h]) : v[side, h]
}
function report(   om, nm, wins, p) {
    if (name == "") return
    om = q("old", 0.5); nm = q("new", 0.5)
    wins = 0
    for (p in ns) if ((p, "new") in by && (p, "old") in by && by[p, "new"] < by[p, "old"]) wins++
    printf "%s\n  old median %.0f ns/op  [q1 %.0f, q3 %.0f]\n  new median %.0f ns/op  [q1 %.0f, q3 %.0f]\n", name, om, q("old", 0.25), q("old", 0.75), nm, q("new", 0.25), q("new", 0.75)
    printf "  new/old %.3f  old IQR/median %.3f  new faster in %d of %d pairs\n", nm / om, (q("old", 0.75) - q("old", 0.25)) / om, wins, cnt["old"] < cnt["new"] ? cnt["old"] : cnt["new"]
}
$1 != name { report(); name = $1; delete cnt; delete v; delete by; delete ns }
{ v[$3, cnt[$3]++] = $4; by[$2, $3] = $4; ns[$2] = 1 }
END { report() }'

//go:build debugcheck

package moving

// countPieces makes the join walks count what they do with every unit
// pair they visit (see PieceCounts), so that tests can pin those counts
// on a fixed catalog. Compiled in only under the debugcheck build tag.
const countPieces = true

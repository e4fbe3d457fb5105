// Storagedemo: the Section 4 data structures at work — attribute values
// encoded as root records plus database arrays, the inline/external
// (FLOB) placement policy, the page store, and equality by
// representation.
package main

import (
	"bytes"
	"fmt"

	"movingdb/internal/db"
	"movingdb/internal/moving"
	"movingdb/internal/storage"
	"movingdb/internal/workload"
)

func main() {
	g := workload.New(1)

	// A small and a large moving point.
	short := g.RandomTrajectory(0, 3, 60, 1)
	long := g.RandomTrajectory(0, 500, 60, 1)

	eShort := storage.EncodeMPoint(short)
	eLong := storage.EncodeMPoint(long)
	fmt.Println("mpoint encodings (root record + units array):")
	fmt.Printf("  short: root=%dB units-array=%dB (%d units)\n", len(eShort.Root), len(eShort.Arrays[0]), short.M.Len())
	fmt.Printf("  long:  root=%dB units-array=%dB (%d units)\n\n", len(eLong.Root), len(eLong.Arrays[0]), long.M.Len())

	// FLOB policy: small arrays inline, large arrays on pages.
	ps := storage.NewPageStore()
	svShort := storage.Store(ps, eShort)
	svLong := storage.Store(ps, eLong)
	fmt.Printf("inline threshold = %d bytes, page size = %d bytes\n", storage.InlineThreshold, storage.PageSize)
	fmt.Printf("  short: inline=%dB external-pages=%d\n", svShort.InlineSize(), svShort.ExternalPages())
	fmt.Printf("  long:  inline=%dB external-pages=%d\n\n", svLong.InlineSize(), svLong.ExternalPages())

	// Round trip through the page store.
	back, err := storage.Load(ps, svLong)
	if err != nil {
		panic(err)
	}
	decoded, err := storage.DecodeMPoint(back)
	if err != nil {
		panic(err)
	}
	t0, _ := long.DefTime().Min()
	fmt.Printf("round trip ok: position at start %v == %v\n\n", decoded.AtInstant(t0), long.AtInstant(t0))

	// Equality by representation: same value, same bytes.
	a := storage.EncodeMPoint(short).Flatten()
	b := storage.EncodeMPoint(short).Flatten()
	fmt.Printf("equality by representation: %v (%d bytes compared)\n\n", bytes.Equal(a, b), len(a))

	// A moving region spills its subarrays (Figure 7 layout).
	stormRel := db.NewRelation("storms", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "extent", Type: db.TMRegion},
	})
	stormRel.MustInsert(db.Tuple{"Klaus", g.Storm(0, 64, 14, 600)})
	stored, err := db.StoreRelation(stormRel, ps)
	if err != nil {
		panic(err)
	}
	fmt.Printf("storms relation stored: inline=%dB, external pages=%d (page store total %d pages)\n",
		stored.InlineBytes(), stored.ExternalPages(), ps.NumPages())
	loaded, err := stored.Load()
	if err != nil {
		panic(err)
	}
	mr := db.Get[moving.MRegion](loaded, loaded.Scan()[0], "extent")
	if snap, ok := mr.AtInstant(9000); ok {
		fmt.Printf("decoded storm snapshot at t=9000: %d segments, area %.1f\n", snap.NumSegments(), snap.Area())
	}
}

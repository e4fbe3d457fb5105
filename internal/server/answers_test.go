package server

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"movingdb/internal/db"
	"movingdb/internal/moving"
	"movingdb/internal/workload"
)

// answersGolden pins what TestAnswersPinned's request mix answers.
var answersGolden = filepath.Join("testdata", "answers.golden")

// TestAnswersPinned answers a fixed seeded mix on a read-only server and
// holds the FNV-64a of the response bodies, per route, to
// testdata/answers.golden: a change that must not move an answer (a
// faster executor, a kernel made bit-identical) is checked here without
// a benchmark run. The data is the analytics catalog — 200 flights and
// 16 storms from workload seed 2000 — with the flights also served as
// the frozen epoch 0: window, atinstant and nearby requests from the
// workload generators, and the four SQL templates of bench/'s
// analytics_sql workload (plus one grouped statement) with seeded
// literals. An intended change of answers regenerates the file with
// `go test -run TestAnswersPinned ./internal/server -update`.
func TestAnswersPinned(t *testing.T) {
	h := answersServer(t)
	var got bytes.Buffer
	for _, route := range answersMix() {
		hash := fnv.New64a()
		for _, path := range route.paths {
			rec := getRec(t, h, path, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
			}
			hash.Write(rec.Body.Bytes())
			hash.Write([]byte{0})
		}
		fmt.Fprintf(&got, "%s %d %016x\n", route.name, len(route.paths), hash.Sum64())
	}
	if *updateGolden {
		if err := os.WriteFile(answersGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(answersGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("answers differ from %s (-update rewrites it; only for an intended change of answers)\ngot:\n%swant:\n%s", answersGolden, got.Bytes(), want)
	}
}

// answersServer is a read-only server over the analytics catalog, its
// flights also registered as the tracked objects.
func answersServer(t *testing.T) http.Handler {
	t.Helper()
	g := workload.New(2000)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	var ids []string
	var objects []moving.MPoint
	for _, f := range g.Flights(200, 200) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
		ids = append(ids, f.ID)
		objects = append(objects, f.Flight)
	}
	storms := db.NewRelation("storms", db.Schema{
		{Name: "name", Type: db.TString},
		{Name: "extent", Type: db.TMRegion},
	})
	for i := 0; i < 16; i++ {
		storms.MustInsert(db.Tuple{fmt.Sprintf("storm%02d", i), g.Storm(0, 64, 12, 6)})
	}
	s, err := New(Config{Catalog: db.Catalog{"planes": planes, "storms": storms}, ObjectIDs: ids, Objects: objects})
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

// answersRoute is one route's share of the mix, in request order.
type answersRoute struct {
	name  string
	paths []string
}

func answersMix() []answersRoute {
	num := func(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }
	g := workload.New(77)
	var window, instant, nearby, sql []string
	for _, q := range g.WindowQueries(24, 0, 300) {
		window = append(window, "/v1/window?x1="+num(q.Rect.MinX)+"&y1="+num(q.Rect.MinY)+
			"&x2="+num(q.Rect.MaxX)+"&y2="+num(q.Rect.MaxY)+"&t1="+num(q.T1)+"&t2="+num(q.T2))
	}
	for _, at := range g.Instants(24, 0, 300) {
		instant = append(instant, "/v1/atinstant?t="+num(at))
	}
	for _, q := range g.NearbyQueries(24, 0, 300, 8) {
		p := "/v1/nearby?x=" + num(q.X) + "&y=" + num(q.Y) + "&t=" + num(q.T)
		if q.K > 0 {
			p += "&k=" + strconv.Itoa(q.K)
		}
		if q.Radius >= 0 {
			p += "&radius=" + num(q.Radius)
		}
		nearby = append(nearby, p)
	}
	lit := rand.New(rand.NewSource(1))
	for k := 0; k < 2; k++ {
		none := fmt.Sprintf("none%d", lit.Intn(1_000_000))
		for _, q := range []string{
			"SELECT p.id, s.name FROM planes p, storms s WHERE sometimes(inside(p.flight, s.extent)) AND p.id <> '" + none + "'",
			fmt.Sprintf("SELECT p.id, q.id FROM planes p, planes q WHERE p.id < q.id AND val(initial(atmin(distance(p.flight, q.flight)))) < %.3f", 5+20*lit.Float64()),
			"SELECT name, max(area(extent)) AS peak, '" + none + "' AS tag FROM storms WHERE name <> '" + none + "'",
			fmt.Sprintf("SELECT p.id, duration(inside(p.flight, s.extent)) AS exposure FROM planes p, storms s WHERE s.name = 'storm00' AND sometimes(inside(p.flight, s.extent)) AND p.id <> '%s' ORDER BY exposure DESC LIMIT %d", none, 5+lit.Intn(10)),
			"SELECT airline, count(*) AS n, avg(travelled(flight)) AS km FROM planes WHERE NOT (airline = '" + none + "') GROUP BY airline ORDER BY n DESC, airline",
		} {
			sql = append(sql, "/v1/query?q="+url.QueryEscape(q))
		}
	}
	return []answersRoute{{"window", window}, {"atinstant", instant}, {"nearby", nearby}, {"query", sql}}
}

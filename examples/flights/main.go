// Flights: the running example of Section 2 of the paper, executed end
// to end on the mini relational engine — a planes relation with an
// mpoint attribute, the "Lufthansa flights longer than L" selection, and
// the "pairs of planes closer than d" spatio-temporal join, both stated
// in the Section 2 SQL dialect and run by db.Query.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"movingdb/internal/db"
	"movingdb/internal/workload"
)

func main() {
	n := flag.Int("n", 40, "number of flights")
	seed := flag.Int64("seed", 2000, "workload seed")
	minLen := flag.Float64("minlen", 500, "trajectory length threshold (query 1)")
	maxDist := flag.Float64("maxdist", 25, "closest approach threshold (query 2)")
	flag.Parse()

	// planes(airline: string, id: string, flight: mpoint)
	planes := db.NewRelation("planes", db.Schema{
		{Name: "airline", Type: db.TString},
		{Name: "id", Type: db.TString},
		{Name: "flight", Type: db.TMPoint},
	})
	for _, f := range workload.New(*seed).Flights(*n, 200) {
		planes.MustInsert(db.Tuple{f.Airline, f.ID, f.Flight})
	}
	cat := db.Catalog{"planes": planes}
	fmt.Printf("planes%v with %d tuples\n\n", planes.Schema, planes.Len())

	fmt.Printf("Q1: Lufthansa flights with trajectory longer than %.0f\n", *minLen)
	q1 := query(cat, "SELECT airline, id, length(trajectory(flight)) AS len\n"+
		"    FROM planes\n"+
		"    WHERE airline = 'Lufthansa' AND length(trajectory(flight)) > "+literal(*minLen))
	for _, t := range q1.Scan() {
		fmt.Printf("  %-10s %-6s length=%.1f\n", t[0], t[1], t[2])
	}
	fmt.Printf("  (%d rows)\n\n", q1.Len())

	fmt.Printf("Q2: pairs of planes that came closer than %.0f\n", *maxDist)
	q2 := query(cat, "SELECT p.airline, p.id, q.airline, q.id,\n"+
		"           val(initial(atmin(distance(p.flight, q.flight)))) AS mindist,\n"+
		"           inst(initial(atmin(distance(p.flight, q.flight)))) AS at\n"+
		"    FROM planes p, planes q\n"+
		"    WHERE p.id < q.id\n"+
		"      AND val(initial(atmin(distance(p.flight, q.flight)))) < "+literal(*maxDist))
	for _, t := range q2.Scan() {
		fmt.Printf("  %-10s %-6s ~ %-10s %-6s  min distance %.2f at t=%.1f\n",
			t[0], t[1], t[2], t[3], t[4], t[5])
	}
	fmt.Printf("  (%d pairs)\n", q2.Len())
}

// query prints a statement and runs it; a failing statement ends the
// program.
func query(cat db.Catalog, sql string) *db.Relation {
	fmt.Printf("  %s\n", sql)
	res, err := db.Query(cat, sql)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
	return res
}

// literal renders a flag value as a numeric literal of the query
// language.
func literal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

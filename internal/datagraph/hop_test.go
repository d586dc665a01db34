package datagraph_test

import (
	"fmt"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/mutgen"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// schemaHops binds every hop of db's schema: each FK in both directions,
// each ordered pair of FKs of every relation holding two or more (a
// junction hop), every step of the given G_DSs (through GDS.Bind) and
// every flow of the given G_As.
func schemaHops(t *testing.T, db *relational.DB, gdss []*schemagraph.GDS, gas []*rank.GA) map[string]datagraph.Hop {
	t.Helper()
	hops := map[string]datagraph.Hop{}
	add := func(name string, h datagraph.Hop, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hops[name] = h
	}
	for _, r := range db.Relations {
		for fi := range r.FKs {
			for _, fwd := range []bool{true, false} {
				h, err := datagraph.FKHop(db, r.Name, fi, fwd)
				add(fmt.Sprintf("%s.fk%d forward=%v", r.Name, fi, fwd), h, err)
			}
			for fo := range r.FKs {
				if len(r.FKs) > 1 {
					h, err := datagraph.JunctionHop(db, r.Name, fi, fo)
					add(fmt.Sprintf("%s fk%d->fk%d", r.Name, fi, fo), h, err)
				}
			}
		}
	}
	for _, gds := range gdss {
		if err := gds.Bind(db); err != nil {
			t.Fatalf("Bind %s: %v", gds.DSName, err)
		}
		for _, n := range gds.Nodes()[1:] {
			hops[fmt.Sprintf("G_DS %s/%s", gds.DSName, n.Label)] = n.Hop
		}
	}
	for _, ga := range gas {
		for i, f := range ga.Flows {
			name := fmt.Sprintf("G_A %s flow %d", ga.Name, i)
			if f.Junction != "" {
				h, err := datagraph.JunctionHop(db, f.Junction, f.JFKFrom, f.JFKTo)
				add(name, h, err)
			} else {
				h, err := datagraph.FKHop(db, f.Rel, f.FK, f.Forward)
				add(name, h, err)
			}
		}
	}
	return hops
}

// crossings counts every (s, t) with t ∈ Cross(h, s) over all s of h's
// From relation, once per occurrence of t.
func crossings(g *datagraph.Graph, h datagraph.Hop) map[[2]relational.TupleID]int {
	out := map[[2]relational.TupleID]int{}
	var buf []relational.TupleID
	for s := 0; s < g.RelSize(h.From()); s++ {
		for _, t := range g.Cross(h, relational.TupleID(s), &buf) {
			out[[2]relational.TupleID{relational.TupleID(s), t}]++
		}
	}
	return out
}

// TestCrossReverseIsInverse: for every hop of the DBLP and TPC-H schemas —
// G_DS steps and G_A flows included — s ∈ Cross(h, t) exactly when
// t ∈ Cross(h.Reverse(), s), counted with multiplicity, on a fresh graph
// and after each of a few seeded mutation batches applied in place.
func TestCrossReverseIsInverse(t *testing.T) {
	dcfg := datagen.DefaultDBLPConfig()
	dcfg.Authors, dcfg.Papers, dcfg.Conferences, dcfg.YearSpan = 40, 120, 4, 3
	ddb, err := datagen.GenerateDBLP(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := datagen.DefaultTPCHConfig()
	tcfg.ScaleFactor = 0.002
	tdb, err := datagen.GenerateTPCH(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		db   *relational.DB
		gdss []*schemagraph.GDS
		gas  []*rank.GA
	}{
		{"dblp", ddb, []*schemagraph.GDS{datagen.AuthorGDS(), datagen.PaperGDS()}, []*rank.GA{datagen.DBLPGA1(), datagen.DBLPGA2()}},
		{"tpch", tdb, []*schemagraph.GDS{datagen.CustomerGDS(), datagen.SupplierGDS()}, []*rank.GA{datagen.TPCHGA1(), datagen.TPCHGA2()}},
	} {
		hops := schemaHops(t, c.db, c.gdss, c.gas)
		g, err := datagraph.Build(c.db)
		if err != nil {
			t.Fatal(err)
		}
		gen := mutgen.New(c.db, 40)
		for round := 0; round < 4; round++ {
			if round > 0 {
				res, err := c.db.Apply(gen.NextBatch())
				if err != nil {
					t.Fatalf("%s round %d: Apply: %v", c.name, round, err)
				}
				if err := g.Apply(res); err != nil {
					t.Fatalf("%s round %d: graph Apply: %v", c.name, round, err)
				}
			}
			edges := 0
			for name, h := range hops {
				r := h.Reverse()
				if r.From() != h.To() || r.To() != h.From() || r.Reverse() != h {
					t.Fatalf("%s: %s: Reverse is not the same join walked back", c.name, name)
				}
				fwd, back := crossings(g, h), crossings(g, r)
				for st, n := range fwd {
					if m := back[[2]relational.TupleID{st[1], st[0]}]; m != n {
						t.Fatalf("%s round %d: %s: %d reaches %d %d times, reversed %d", c.name, round, name, st[0], st[1], n, m)
					}
					edges += n
				}
				if len(fwd) != len(back) {
					t.Fatalf("%s round %d: %s: %d pairs forward, %d reversed", c.name, round, name, len(fwd), len(back))
				}
			}
			if edges == 0 {
				t.Fatalf("%s round %d: no hop crossed anything", c.name, round)
			}
		}
		t.Logf("%s: %d hops", c.name, len(hops))
	}
}

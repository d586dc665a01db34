package snippet

import (
	"strings"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/datagraph"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
)

func dblpTree(t *testing.T) *ostree.Tree {
	t.Helper()
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 40
	cfg.Papers = 150
	cfg.Conferences = 5
	cfg.YearSpan = 4
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	plans, err := rank.Compile(g, datagen.DBLPGA1(), nil)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	scores, _, err := plans.Run(rank.DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	src := ostree.NewGraphSource(g, scores)
	root, _ := db.Relation("Author").LookupPK(1)
	gds := datagen.AuthorGDS()
	if err := gds.Bind(db); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	tree, err := ostree.Generate(src, gds, root, ostree.GenOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return tree
}

func TestStaticSnippet(t *testing.T) {
	tree := dblpTree(t)
	text, picked := Static(tree, "Faloutsos")
	if !strings.HasPrefix(text, "Search for Faloutsos in the dblp database") {
		t.Errorf("missing boilerplate header: %q", text)
	}
	if len(picked) != MaxTuples {
		t.Errorf("picked %d tuples, want %d", len(picked), MaxTuples)
	}
	if lines := strings.Count(text, "\n"); lines != MaxTuples+1 {
		t.Errorf("snippet has %d lines, want %d", lines, MaxTuples+1)
	}
	// Deterministic.
	text2, picked2 := Static(tree, "Faloutsos")
	if text2 != text || len(picked2) != len(picked) {
		t.Error("Static not deterministic")
	}
	for i := range picked {
		if picked[i] != picked2[i] {
			t.Error("Static picks not deterministic")
		}
	}
}

func TestStaticSnippetTinyOS(t *testing.T) {
	tree := dblpTree(t)
	// Truncate to a 2-node tree view by building a tiny synthetic tree.
	tiny := &ostree.Tree{DB: tree.DB, GDS: tree.GDS}
	tiny.Nodes = append(tiny.Nodes, tree.Nodes[0])
	tiny.Nodes[0].Children = nil
	text, picked := Static(tiny, "q")
	if len(picked) != 1 {
		t.Errorf("picked %d tuples from 1-node OS", len(picked))
	}
	if strings.Count(text, "\n") != 2 {
		t.Errorf("unexpected snippet:\n%s", text)
	}
}

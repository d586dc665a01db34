package sizelos

import (
	"path/filepath"
	"testing"

	"sizelos/internal/datagen"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// The full persistence cycle: generate -> save -> reload -> rebuild engine
// -> identical search results. This is the workflow cmd/datagen +
// cmd/oskws support.
func TestPersistenceRoundTripSearch(t *testing.T) {
	cfg := datagen.DefaultDBLPConfig()
	cfg.Authors = 60
	cfg.Papers = 250
	cfg.Conferences = 5
	cfg.YearSpan = 4
	db, err := datagen.GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	path := filepath.Join(t.TempDir(), "dblp.gob")
	if err := db.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	settings := DefaultSettings(datagen.DBLPGA1(), datagen.DBLPGA2())
	build := func(d *relational.DB) *Engine {
		t.Helper()
		eng, err := NewEngine(d, settings)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if err := eng.RegisterGDS(datagen.AuthorGDS()); err != nil {
			t.Fatalf("RegisterGDS: %v", err)
		}
		return eng
	}
	engA := build(db)

	reloaded, err := relational.LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	engB := build(reloaded)

	a, err := search(engA, "Author", "Christos Faloutsos", 10, QueryRequest{})
	if err != nil {
		t.Fatalf("Search(a): %v", err)
	}
	b, err := search(engB, "Author", "Christos Faloutsos", 10, QueryRequest{})
	if err != nil {
		t.Fatalf("Search(b): %v", err)
	}
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("result counts: %d vs %d", len(a), len(b))
	}
	if a[0].Text != b[0].Text {
		t.Errorf("reloaded engine renders differently:\n--- a ---\n%s--- b ---\n%s", a[0].Text, b[0].Text)
	}
	da := a[0].Result.Importance - b[0].Result.Importance
	if da > 1e-9 || da < -1e-9 {
		t.Errorf("importance differs after reload: %v vs %v", a[0].Result.Importance, b[0].Result.Importance)
	}
}

// Precomputed scores survive their own persistence cycle and keep ranking
// order (the rank.Store workflow).
func TestScoreStoreRoundTripRanking(t *testing.T) {
	eng := getDBLP(t)
	sc, err := eng.Scores(DefaultSetting)
	if err != nil {
		t.Fatal(err)
	}
	store := rank.NewStore()
	store.Put(DefaultSetting, sc)
	path := filepath.Join(t.TempDir(), "scores.gob")
	if err := store.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	loaded, err := rank.LoadStoreFile(path)
	if err != nil {
		t.Fatalf("LoadStoreFile: %v", err)
	}
	got, err := loaded.Get(DefaultSetting)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	for rel, s := range sc {
		g := got[rel]
		if len(g) != len(s) {
			t.Fatalf("relation %s: %d scores, want %d", rel, len(g), len(s))
		}
		for i := range s {
			if d := s[i] - g[i]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("relation %s tuple %d: %v != %v", rel, i, s[i], g[i])
			}
		}
	}
}

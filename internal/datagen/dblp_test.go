package datagen

import (
	"reflect"
	"testing"

	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// computeRank is rank.Compile + Run in one shot: the cold ranking of g
// under ga.
func computeRank(g *datagraph.Graph, ga *rank.GA, opts rank.Options) (relational.DBScores, rank.Stats, error) {
	plans, err := rank.Compile(g, ga, nil)
	if err != nil {
		return nil, rank.Stats{}, err
	}
	return plans.Run(opts)
}

func smallDBLP() DBLPConfig {
	cfg := DefaultDBLPConfig()
	cfg.Authors = 60
	cfg.Papers = 300
	cfg.Conferences = 6
	cfg.YearSpan = 5
	return cfg
}

func TestGenerateDBLPIntegrity(t *testing.T) {
	db, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	if errs := db.Validate(); len(errs) != 0 {
		t.Fatalf("referential integrity: %v", errs)
	}
	for rel, want := range map[string]int{
		"Conference": 6, "Year": 30, "Paper": 300, "Author": 60,
	} {
		if got := db.Relation(rel).Len(); got != want {
			t.Errorf("%s count = %d, want %d", rel, got, want)
		}
	}
	writes := db.Relation("Writes").Len()
	if writes < 300 {
		t.Errorf("Writes = %d, want >= one author per paper", writes)
	}
	if db.Relation("Cites").Len() == 0 {
		t.Error("no citations generated")
	}
}

func TestGenerateDBLPDeterministic(t *testing.T) {
	a, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	b, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	for _, rel := range a.Relations {
		if !reflect.DeepEqual(rel.Tuples, b.Relation(rel.Name).Tuples) {
			t.Errorf("relation %s differs between identical seeds", rel.Name)
		}
	}
	cfg := smallDBLP()
	cfg.Seed = 99
	c, err := GenerateDBLP(cfg)
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	if reflect.DeepEqual(a.Relation("Writes").Tuples, c.Relation("Writes").Tuples) {
		t.Error("different seeds produced identical Writes")
	}
}

func TestFamousAuthorsPresent(t *testing.T) {
	db, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	author := db.Relation("Author")
	names := map[string]bool{}
	for _, tup := range author.Tuples {
		names[tup[1].Str] = true
	}
	for _, want := range famousAuthors {
		if !names[want] {
			t.Errorf("missing famous author %q", want)
		}
	}
}

func TestAuthorProductivitySkewed(t *testing.T) {
	db, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	writes := db.Relation("Writes")
	counts := map[int64]int{}
	aCol := writes.ColIndex("author")
	for _, tup := range writes.Tuples {
		counts[tup[aCol].Int]++
	}
	// The first (famous) author must be far more productive than the
	// median author.
	first := counts[1]
	total := 0
	for _, c := range counts {
		total += c
	}
	avg := float64(total) / float64(len(counts))
	if float64(first) < 2*avg {
		t.Errorf("author 1 productivity %d not skewed (avg %.1f)", first, avg)
	}
}

func TestCitationsAcyclicAndNoSelf(t *testing.T) {
	db, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	cites := db.Relation("Cites")
	for _, tup := range cites.Tuples {
		citing, cited := tup[1].Int, tup[2].Int
		if cited >= citing {
			t.Fatalf("citation %d -> %d violates temporal order", citing, cited)
		}
	}
}

func TestGenerateDBLPErrors(t *testing.T) {
	cfg := smallDBLP()
	cfg.Authors = 2 // fewer than the famous-author list
	if _, err := GenerateDBLP(cfg); err == nil {
		t.Error("too-few authors accepted")
	}
	cfg = smallDBLP()
	cfg.Papers = 0
	if _, err := GenerateDBLP(cfg); err == nil {
		t.Error("zero papers accepted")
	}
}

func TestDBLPGAsCompute(t *testing.T) {
	db, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("datagraph.Build: %v", err)
	}
	for _, ga := range []*rank.GA{DBLPGA1(), DBLPGA2()} {
		scores, stats, err := computeRank(g, ga, rank.DefaultOptions())
		if err != nil {
			t.Fatalf("Compute(%s): %v", ga.Name, err)
		}
		if !stats.Converged {
			t.Errorf("%s did not converge", ga.Name)
		}
		if len(scores["Paper"]) != db.Relation("Paper").Len() {
			t.Errorf("%s: missing Paper scores", ga.Name)
		}
	}
}

func TestDBLPGDSsValidate(t *testing.T) {
	db, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	if err := AuthorGDS().Bind(db); err != nil {
		t.Errorf("AuthorGDS invalid: %v", err)
	}
	if err := PaperGDS().Bind(db); err != nil {
		t.Errorf("PaperGDS invalid: %v", err)
	}
}

func TestAuthorGDSAnnotate(t *testing.T) {
	db, err := GenerateDBLP(smallDBLP())
	if err != nil {
		t.Fatalf("GenerateDBLP: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	scores, _, err := computeRank(g, DBLPGA1(), rank.DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	gds := AuthorGDS()
	maxes := make(map[string]float64, len(scores))
	for rel, s := range scores {
		maxes[rel] = s.MaxScore()
	}
	if err := gds.AnnotateMax(maxes); err != nil {
		t.Fatalf("AnnotateMax: %v", err)
	}
	paper := gds.Find("Paper")
	if paper.Max <= 0 {
		t.Errorf("Paper.Max = %v, want > 0", paper.Max)
	}
	if paper.MMax <= 0 {
		t.Errorf("Paper.MMax = %v, want > 0 (cites replicas)", paper.MMax)
	}
	conf := gds.Find("Conference")
	if conf.MMax != 0 {
		t.Errorf("Conference.MMax = %v, want 0 (leaf)", conf.MMax)
	}
}

package sizelos

import (
	"errors"
	"strings"
	"testing"
)

func TestRankedSearchOrdersByImS(t *testing.T) {
	eng := getDBLP(t)
	res, err := ranked(eng, "Author", "Faloutsos", 10, 3, QueryRequest{})
	if err != nil {
		t.Fatalf("RankedSearch: %v", err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Result.Importance > res[i-1].Result.Importance {
			t.Errorf("results not sorted by Im(S): %v then %v",
				res[i-1].Result.Importance, res[i].Result.Importance)
		}
	}
	// Top-k truncation.
	res, err = ranked(eng, "Author", "Faloutsos", 10, 1, QueryRequest{})
	if err != nil {
		t.Fatalf("RankedSearch: %v", err)
	}
	if len(res) != 1 {
		t.Errorf("k=1 returned %d results", len(res))
	}
}

func TestRankedSearchVsPlainSearchMayDiffer(t *testing.T) {
	// RankedSearch orders by summary importance; Search orders by DS global
	// score. Both must return the same *set* of DSs for the same query.
	eng := getDBLP(t)
	a, err := search(eng, "Author", "Faloutsos", 10, QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ranked(eng, "Author", "Faloutsos", 10, 10, QueryRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result sets differ in size: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for _, s := range a {
		seen[s.Headline] = true
	}
	for _, s := range b {
		if !seen[s.Headline] {
			t.Errorf("RankedSearch returned %q not in Search results", s.Headline)
		}
	}
}

func TestRankedSearchErrors(t *testing.T) {
	eng := getDBLP(t)
	// K = 0 means "rank everything" on the one request struct (the HTTP
	// layer still refuses an explicit k=0); a negative K is invalid.
	if _, err := ranked(eng, "Author", "x", 5, -1, QueryRequest{}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("k=-1 error = %v, want ErrInvalidRequest", err)
	}
	if _, err := ranked(eng, "Author", "x", 5, 1, QueryRequest{Setting: "nope"}); err == nil {
		t.Error("unknown setting accepted")
	}
}

func TestRegisterAutoGDS(t *testing.T) {
	eng := getDBLP(t)
	// Derive an automatic Conference G_DS (no expert preset exists for it).
	if err := eng.RegisterAutoGDS("Conference", []string{"Writes", "Cites"}, 0.5); err != nil {
		t.Fatalf("RegisterAutoGDS: %v", err)
	}
	gds, err := eng.GDS("Conference", DefaultSetting)
	if err != nil {
		t.Fatalf("GDS: %v", err)
	}
	if gds.Root.Rel != "Conference" {
		t.Errorf("root = %s", gds.Root.Rel)
	}
	// The annotated clone must carry max statistics (Annotate ran).
	if gds.Root.Max <= 0 {
		t.Errorf("auto G_DS not annotated: root max %v", gds.Root.Max)
	}
	// And it must be usable end-to-end.
	res, err := search(eng, "Conference", "SIGMOD", 8, QueryRequest{})
	if err != nil {
		t.Fatalf("Search on auto G_DS: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	if !strings.Contains(res[0].Text, "Conference: SIGMOD") {
		t.Errorf("render:\n%s", res[0].Text)
	}
	if err := eng.RegisterAutoGDS("Ghost", nil, 0); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestThetaAppliedToTPCH(t *testing.T) {
	eng, err := OpenTPCH(testTPCHConfig())
	if err != nil {
		t.Fatalf("OpenTPCH: %v", err)
	}
	gds, err := eng.GDS("Customer", DefaultSetting)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{}
	for _, n := range gds.Nodes() {
		labels = append(labels, n.Label)
	}
	// §2.1: Customer G_DS(0.7) = Customer, Nation, Region, Order, Lineitem,
	// Partsupp.
	want := "Customer,Nation,Region,Order,Lineitem,Partsupp"
	if got := strings.Join(labels, ","); got != want {
		t.Errorf("Customer G_DS(0.7) = %s, want %s", got, want)
	}
}

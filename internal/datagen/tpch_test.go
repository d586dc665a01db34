package datagen

import (
	"math"
	"reflect"
	"testing"

	"sizelos/internal/datagraph"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

func smallTPCH() TPCHConfig {
	return TPCHConfig{Seed: 7, ScaleFactor: 0.0005}
}

func TestGenerateTPCHIntegrity(t *testing.T) {
	db, err := GenerateTPCH(smallTPCH())
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	if errs := db.Validate(); len(errs) != 0 {
		t.Fatalf("referential integrity: %v", errs)
	}
	if got := db.Relation("Region").Len(); got != 5 {
		t.Errorf("Region = %d, want 5", got)
	}
	if got := db.Relation("Nation").Len(); got != 25 {
		t.Errorf("Nation = %d, want 25", got)
	}
	ps := db.Relation("Partsupp").Len()
	parts := db.Relation("Parts").Len()
	if ps != 4*parts {
		t.Errorf("Partsupp = %d, want 4×Parts = %d", ps, 4*parts)
	}
	if db.Relation("Lineitem").Len() < db.Relation("Orders").Len() {
		t.Error("expected at least one lineitem per order")
	}
}

func TestGenerateTPCHDeterministic(t *testing.T) {
	a, _ := GenerateTPCH(smallTPCH())
	b, _ := GenerateTPCH(smallTPCH())
	for _, rel := range a.Relations {
		if !reflect.DeepEqual(rel.Tuples, b.Relation(rel.Name).Tuples) {
			t.Errorf("relation %s differs between identical seeds", rel.Name)
		}
	}
}

func TestOrdersTotalPriceConsistent(t *testing.T) {
	db, err := GenerateTPCH(smallTPCH())
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	orders := db.Relation("Orders")
	li := db.Relation("Lineitem")
	liOrder := li.FKIndexOf("order")
	epCol := li.ColIndex("extendedprice")
	tpCol := orders.ColIndex("totalprice")
	for oid := 0; oid < orders.Len() && oid < 50; oid++ {
		pk := orders.PK(relational.TupleID(oid))
		sum := 0.0
		for _, lid := range db.JoinChildren(li, liOrder, pk) {
			sum += li.Tuples[lid][epCol].Float
		}
		got := orders.Tuples[oid][tpCol].Float
		if math.Abs(got-sum) > 1e-6 {
			t.Fatalf("order %d: totalprice %v != Σ lineitems %v", pk, got, sum)
		}
	}
}

func TestGenerateTPCHBadScale(t *testing.T) {
	if _, err := GenerateTPCH(TPCHConfig{Seed: 1, ScaleFactor: 0}); err == nil {
		t.Error("zero scale factor accepted")
	}
	if _, err := GenerateTPCH(TPCHConfig{Seed: 1, ScaleFactor: -1}); err == nil {
		t.Error("negative scale factor accepted")
	}
}

func TestTPCHGAsCompute(t *testing.T) {
	db, err := GenerateTPCH(smallTPCH())
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, ga := range []*rank.GA{TPCHGA1(), TPCHGA2()} {
		scores, stats, err := computeRank(g, ga, rank.DefaultOptions())
		if err != nil {
			t.Fatalf("Compute(%s): %v", ga.Name, err)
		}
		if !stats.Converged {
			t.Errorf("%s did not converge", ga.Name)
		}
		if len(scores["Customer"]) != db.Relation("Customer").Len() {
			t.Errorf("%s: missing Customer scores", ga.Name)
		}
	}
}

func TestValueRankDiscriminatesCustomers(t *testing.T) {
	// A customer with high-value orders should outrank one with low-value
	// orders under GA1 (ValueRank); under GA2 (values stripped) the two are
	// ranked by structure alone. We check the value-sensitivity property on
	// aggregate: the top customer by summed order value should be in the
	// top decile of ValueRank scores.
	db, err := GenerateTPCH(smallTPCH())
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	g, err := datagraph.Build(db)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	scores, _, err := computeRank(g, TPCHGA1(), rank.DefaultOptions())
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	orders := db.Relation("Orders")
	custCol := orders.ColIndex("customer")
	tpCol := orders.ColIndex("totalprice")
	valueByCust := map[int64]float64{}
	for _, tup := range orders.Tuples {
		valueByCust[tup[custCol].Int] += tup[tpCol].Float
	}
	var topCust int64
	best := -1.0
	for c, v := range valueByCust {
		if v > best {
			best, topCust = v, c
		}
	}
	cust := db.Relation("Customer")
	cs := scores["Customer"]
	topID, _ := cust.LookupPK(topCust)
	higher := 0
	for _, v := range cs {
		if v > cs[topID] {
			higher++
		}
	}
	if frac := float64(higher) / float64(len(cs)); frac > 0.10 {
		t.Errorf("top-value customer ranked in worst %0.f%% of ValueRank", frac*100)
	}
}

func TestTPCHGDSsValidate(t *testing.T) {
	db, err := GenerateTPCH(smallTPCH())
	if err != nil {
		t.Fatalf("GenerateTPCH: %v", err)
	}
	if err := CustomerGDS().Validate(db); err != nil {
		t.Errorf("CustomerGDS invalid: %v", err)
	}
	if err := SupplierGDS().Validate(db); err != nil {
		t.Errorf("SupplierGDS invalid: %v", err)
	}
}

func TestCustomerGDSThetaMatchesPaper(t *testing.T) {
	// §2.1: Customer GDS(0.7) includes only Customer, Nation, Region,
	// Order, Lineitem and Partsupp.
	pruned := CustomerGDS().Threshold(0.7)
	var labels []string
	for _, n := range pruned.Nodes() {
		labels = append(labels, n.Label)
	}
	want := []string{"Customer", "Nation", "Region", "Order", "Lineitem", "Partsupp"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("GDS(0.7) = %v, want %v", labels, want)
	}
}

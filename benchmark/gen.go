package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/keyword"
	"sizelos/internal/placement"
	"sizelos/internal/relational"
)

// query is one read request's parameters; ops share queries by pointer.
type query struct {
	rel, keywords string
	l             int
	algo, setting string
	ranked        bool
	// params is the URL query string (no tenant prefix, no cursor).
	params string
}

// write is one mutation batch: a new Paper, its Writes link to an existing
// vocabulary author, and an Author row whose name is a unique token.
type write struct {
	id           int64 // pk of the new Paper, Writes and Author rows
	year         int64
	title        string
	author       int64 // pk of the existing author the paper is linked to
	token        string
	deleteWrites int64 // pk of an earlier Writes row of this client; 0 = none
	rerank       bool
}

// op is one request. Exactly one of q and w is set.
type op struct {
	tenant int
	q      *query
	// keep tells the client to remember the cursor this read returns;
	// cursor marks the follow-up page of the last kept read: the client
	// appends that cursor (or repeats page one when there was none).
	keep, cursor bool
	w            *write
	// path and body are what goes on the wire.
	path, body string
}

func (o op) String() string {
	if o.w != nil {
		return "POST " + o.path + " " + o.body
	}
	if o.cursor {
		return "GET " + o.path + " +cursor"
	}
	return "GET " + o.path
}

// properties are facts about the generated ops, computed from the datasets
// and the ops alone. They are what makes a workload the workload it claims
// to be; check() aborts the run when one does not hold.
type properties struct {
	// keysPerCache is, per tenant, a bound on the distinct summary keys
	// the ops can touch divided by the cache capacity: an upper bound on
	// the hot workloads, a lower bound on the cold ones.
	keysPerCache []float64
	ops          int
	writes       int
	reranks      int
	deletes      int
}

func (p properties) check(wl *workload) error {
	for t, r := range p.keysPerCache {
		switch wl.name {
		case "hot_point", "mixed_write":
			if r > 0.5 {
				return fmt.Errorf("%s: tenant %d read working set is %.2fx the cache, want <= 0.5", wl.name, t, r)
			}
		default:
			if r < 8 {
				return fmt.Errorf("%s: tenant %d touches %.2fx the cache in distinct summary keys, want >= 8", wl.name, t, r)
			}
		}
	}
	share := func(what string, n, of int, want float64) error {
		if got := float64(n) / float64(of); got < want-0.01 || got > want+0.01 {
			return fmt.Errorf("%s: %s share %.4f, want %.2f +-0.01", wl.name, what, got, want)
		}
		return nil
	}
	if wl.writes {
		if err := share("write", p.writes, p.ops, 0.20); err != nil {
			return err
		}
		if err := share("rerank", p.reranks, p.writes, 0.10); err != nil {
			return err
		}
		return share("delete", p.deletes, p.writes, 0.25)
	}
	if p.writes != 0 {
		return fmt.Errorf("%s: %d writes in a read-only workload", wl.name, p.writes)
	}
	return nil
}

// plan is a workload's complete input: the tenants, their dataset seeds and
// every client's op sequence, warm-up prefix first.
type plan struct {
	wl          *workload
	sz          sizes
	seed        int64
	tenants     []string
	tenantSeeds []int64
	ops         [][]op
	warm        int
	props       properties
	// scratch is where the run's data dirs and trace go.
	scratch string
}

// digest identifies the op sequence: same seed, same digest.
func (p *plan) digest() string {
	h := sha256.New()
	for c, seq := range p.ops {
		fmt.Fprintf(h, "client %d\n", c)
		for _, o := range seq {
			io.WriteString(h, o.String())
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// nodeNames are the fleet members; tenantNames depends on them.
var nodeNames = []string{"n1", "n2", "n3"}

// tenantNames picks, deterministically, one tenant name per fleet node, so
// the three tenants are served by three different nodes. The router's ring
// is a pure function of the member names, so this can run before any fleet
// exists; bootFleet verifies the placement.
func tenantNames() []string {
	ring := placement.New(0)
	for _, n := range nodeNames {
		ring.Add(n)
	}
	owned := make(map[string]string, len(nodeNames))
	for i := 0; len(owned) < len(nodeNames); i++ {
		name := fmt.Sprintf("t%d", i)
		if owner, _ := ring.Owner(name); owned[owner] == "" {
			owned[owner] = name
		}
	}
	names := make([]string, 0, len(nodeNames))
	for _, n := range nodeNames {
		names = append(names, owned[n])
	}
	return names[:numTenants]
}

func dblpConfig(sz sizes, seed int64) datagen.DBLPConfig {
	c := datagen.DefaultDBLPConfig()
	c.Seed, c.Authors, c.Papers = seed, sz.dblpAuthors, sz.dblpPapers
	return c
}

func tpchConfig(sz sizes, seed int64) datagen.TPCHConfig {
	return datagen.TPCHConfig{Seed: seed, ScaleFactor: sz.tpchSF}
}

// generateDB generates one tenant's dataset at the run's sizes.
func generateDB(dataset string, sz sizes, seed int64) (*relational.DB, error) {
	switch dataset {
	case "dblp":
		return datagen.GenerateDBLP(dblpConfig(sz, seed))
	case "tpch":
		return datagen.GenerateTPCH(tpchConfig(sz, seed))
	}
	return nil, fmt.Errorf("unknown dataset %q", dataset)
}

// openDataset builds one tenant's engine over the same dataset. It is the
// nodehost.Config.Open override and the recipe of every replica and
// reference engine, so all of them hold the same data.
func openDataset(sz sizes) func(dataset string, seed int64) (*sizelos.Engine, error) {
	return func(dataset string, seed int64) (*sizelos.Engine, error) {
		switch dataset {
		case "dblp":
			return sizelos.OpenDBLP(dblpConfig(sz, seed))
		case "tpch":
			return sizelos.OpenTPCH(tpchConfig(sz, seed))
		}
		return nil, fmt.Errorf("unknown dataset %q", dataset)
	}
}

// namePair is one given-name x surname pair present in a tenant's Author
// relation and the primary keys of the authors carrying it.
type namePair struct {
	name    string
	authors []int64
}

// dblpFacts is what the generator knows about one DBLP tenant: it reads the
// seeded dataset, never the running program.
type dblpFacts struct {
	pairs      []namePair
	titleWords []string
	years      int64
}

func readDBLP(db *relational.DB) dblpFacts {
	authors := db.Relation("Author")
	byName := make(map[string][]int64)
	for id := range authors.Tuples {
		tup := authors.Tuples[id]
		toks := keyword.Tokenize(tup[1].Str)
		if len(toks) < 2 {
			continue
		}
		name := toks[0] + " " + toks[1]
		byName[name] = append(byName[name], tup[0].Int)
	}
	var f dblpFacts
	for name, pks := range byName {
		f.pairs = append(f.pairs, namePair{name: name, authors: pks})
	}
	sort.Slice(f.pairs, func(a, b int) bool { return f.pairs[a].name < f.pairs[b].name })
	words := make(map[string]bool)
	papers := db.Relation("Paper")
	for id := range papers.Tuples {
		for _, tok := range keyword.Tokenize(papers.Tuples[id][2].Str) {
			words[tok] = true
		}
	}
	for w := range words {
		f.titleWords = append(f.titleWords, w)
	}
	sort.Strings(f.titleWords)
	f.years = int64(db.Relation("Year").Len())
	return f
}

// generator carries the state of one generate call.
type generator struct {
	tenants []string
	queries map[string]*query // interned by params
	paths   map[string]string // interned tenant-prefixed paths
}

func (g *generator) query(q query) *query {
	v := url.Values{}
	v.Set("rel", q.rel)
	v.Set("q", q.keywords)
	v.Set("l", fmt.Sprint(q.l))
	if q.ranked {
		v.Set("k", fmt.Sprint(pageLimit))
	} else {
		v.Set("limit", fmt.Sprint(pageLimit))
	}
	if q.algo != "" {
		v.Set("algo", q.algo)
	}
	if q.setting != "" {
		v.Set("setting", q.setting)
	}
	verb := "/search?"
	if q.ranked {
		verb = "/ranked?"
	}
	q.params = verb + v.Encode()
	if have := g.queries[q.params]; have != nil {
		return have
	}
	g.queries[q.params] = &q
	return &q
}

func (g *generator) read(tenant int, q *query, cursor bool) op {
	key := g.tenants[tenant] + q.params
	path, ok := g.paths[key]
	if !ok {
		path = "/v1/" + g.tenants[tenant] + q.params
		g.paths[key] = path
	}
	return op{tenant: tenant, q: q, cursor: cursor, path: path}
}

// generate builds the plan of one workload from the seed: the tenant
// datasets are generated (and dropped), every client's op sequence is drawn
// from them, and the input properties are computed.
func generate(wl *workload, sz sizes, seed int64, nclients, seconds int) (*plan, error) {
	p := &plan{wl: wl, sz: sz, seed: seed, tenants: tenantNames(), warm: sz.scaled(wl.warmOps, 8)}
	for t := 0; t < numTenants; t++ {
		p.tenantSeeds = append(p.tenantSeeds, seed*100+int64(t)+1)
	}
	g := &generator{tenants: p.tenants, queries: make(map[string]*query), paths: make(map[string]string)}
	perClient := p.warm + wl.ratePerSec*seconds

	var (
		dblp      []dblpFacts
		customers []int
		suppliers []int
	)
	for _, ts := range p.tenantSeeds {
		db, err := generateDB(wl.dataset, sz, ts)
		if err != nil {
			return nil, err
		}
		if wl.dataset == "dblp" {
			dblp = append(dblp, readDBLP(db))
		} else {
			customers = append(customers, db.Relation("Customer").Live())
			suppliers = append(suppliers, db.Relation("Supplier").Live())
		}
	}

	// keys[t] holds tenant t's distinct summary-key bound; see properties.
	keys := make([]map[string]int, numTenants)
	for t := range keys {
		keys[t] = make(map[string]int)
	}
	// Every client of hot_point and mixed_write reads the same vocabulary.
	var vocab [][]namePair
	if len(dblp) > 0 {
		vocab = hotVocab(rand.New(rand.NewSource(seed)), dblp, sz.vocab)
	}
	for c := 0; c < nclients; c++ {
		r := rand.New(rand.NewSource(seed*1000003 + int64(c)))
		var seq []op
		switch wl.name {
		case "hot_point":
			seq = g.hotOps(r, vocab, dblp, perClient, keys, nil)
		case "mixed_write":
			seq = g.hotOps(r, vocab, dblp, perClient, keys, &writer{client: c})
		case "cold_summary":
			seq = g.coldOps(r, dblp, perClient, keys)
		case "ranked_scan":
			seq = g.rankedOps(r, customers, suppliers, perClient, keys)
		}
		for _, o := range seq {
			p.props.ops++
			if o.w != nil {
				p.props.writes++
				if o.w.rerank {
					p.props.reranks++
				}
				if o.w.deleteWrites != 0 {
					p.props.deletes++
				}
			}
		}
		p.ops = append(p.ops, seq)
	}
	for t := range keys {
		total := 0
		for _, n := range keys[t] {
			total += n
		}
		p.props.keysPerCache = append(p.props.keysPerCache, float64(total)/float64(sz.cache))
	}
	return p, p.props.check(wl)
}

// hotVocab draws each tenant's read vocabulary: sz.vocab name pairs present
// in its data, in a seeded order (rank 0 is the Zipf head).
func hotVocab(r *rand.Rand, facts []dblpFacts, n int) [][]namePair {
	vocab := make([][]namePair, len(facts))
	for t, f := range facts {
		pairs := append([]namePair(nil), f.pairs...)
		r.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
		if len(pairs) > n {
			pairs = pairs[:n]
		}
		vocab[t] = pairs
	}
	return vocab
}

// writer turns hotOps into mixed_write: every 5th op of the client is a
// write batch, every 4th batch deletes the client's oldest live Writes row,
// every 10th batch re-ranks. Strides, not draws, so the mix is
// exact at any length.
type writer struct {
	client int
	n      int64
}

func (w *writer) next(r *rand.Rand, tenant int, f dblpFacts, vocab []namePair) *write {
	// Keys start far above any generated pk and are disjoint per client.
	const base = 1_000_000
	id := base + int64(w.client)*100_000_000 + w.n
	author := vocab[r.Intn(len(vocab))]
	words := make([]string, 3)
	for i := range words {
		words[i] = f.titleWords[r.Intn(len(f.titleWords))]
	}
	out := &write{
		id:     id,
		year:   1 + r.Int63n(f.years),
		title:  strings.Join(words, " "),
		author: author.authors[r.Intn(len(author.authors))],
		token:  fmt.Sprintf("bx%dt%dn%d", w.client, tenant, w.n),
		rerank: w.n%10 == 9,
	}
	w.n++
	return out
}

func (w *write) json() string {
	var b strings.Builder
	b.WriteString("{")
	if w.deleteWrites != 0 {
		fmt.Fprintf(&b, `"deletes":[{"rel":"Writes","pk":%d}],`, w.deleteWrites)
	}
	fmt.Fprintf(&b, `"inserts":[{"rel":"Paper","values":[%d,%d,%q]},`, w.id, w.year, w.title)
	fmt.Fprintf(&b, `{"rel":"Writes","values":[%d,%d,%d]},`, w.id, w.id, w.author)
	fmt.Fprintf(&b, `{"rel":"Author","values":[%d,%q]}]`, w.id, w.token)
	if w.rerank {
		b.WriteString(`,"rerank":true`)
	}
	b.WriteString("}")
	return b.String()
}

// batch is the write as the engine's own mutation type, for the replicas
// that are called without HTTP.
func (w *write) batch() sizelos.MutationBatch {
	b := sizelos.MutationBatch{Rerank: w.rerank}
	if w.deleteWrites != 0 {
		b.Deletes = []sizelos.TupleDelete{{Rel: "Writes", PK: w.deleteWrites}}
	}
	iv, sv := relational.IntVal, relational.StrVal
	b.Inserts = []sizelos.TupleInsert{
		{Rel: "Paper", Tuple: relational.Tuple{iv(w.id), iv(w.year), sv(w.title)}},
		{Rel: "Writes", Tuple: relational.Tuple{iv(w.id), iv(w.id), iv(w.author)}},
		{Rel: "Author", Tuple: relational.Tuple{iv(w.id), sv(w.token)}},
	}
	return b
}

func (g *generator) hotOps(r *rand.Rand, vocab [][]namePair, facts []dblpFacts, n int, keys []map[string]int, wr *writer) []op {
	zipf := make([]*rand.Zipf, len(vocab))
	for t := range vocab {
		zipf[t] = rand.NewZipf(r, 1.1, 1, uint64(len(vocab[t])-1))
	}
	// linked queues the client's live Writes rows, oldest first.
	type link struct {
		tenant int
		pk     int64
	}
	var linked []link
	seq := make([]op, 0, n)
	for i := 0; i < n; i++ {
		t := r.Intn(numTenants)
		if wr != nil && i%5 == 4 {
			var del int64
			if wr.n%4 == 3 {
				// A delete goes to the tenant that holds the row.
				t, del, linked = linked[0].tenant, linked[0].pk, linked[1:]
			}
			w := wr.next(r, t, facts[t], vocab[t])
			w.deleteWrites = del
			linked = append(linked, link{t, w.id})
			seq = append(seq, op{tenant: t, w: w, path: "/v1/" + g.tenants[t] + "/tuples", body: w.json()})
			continue
		}
		pair := vocab[t][zipf[t].Uint64()]
		q := g.query(query{rel: "Author", keywords: pair.name, l: hotL})
		// Upper bound: a query serves at most pageLimit of its matches.
		keys[t][q.params] = min(len(pair.authors), pageLimit)
		seq = append(seq, g.read(t, q, false))
	}
	return seq
}

var (
	coldLs    = []int{10, 20, 30, 40, 50}
	coldAlgos = []string{"top-path", "top-path", "top-path", "bottom-up", "dp"} // 60/20/20
)

func (g *generator) coldOps(r *rand.Rand, facts []dblpFacts, n int, keys []map[string]int) []op {
	seq := make([]op, 0, n)
	var lastPaper *op
	for i := 0; i < n; i++ {
		// One op in five is page two of the client's previous Paper query.
		if i%5 == 4 && lastPaper != nil {
			seq = append(seq, g.read(lastPaper.tenant, lastPaper.q, true))
			continue
		}
		t := r.Intn(numTenants)
		f := facts[t]
		q := query{l: coldLs[r.Intn(len(coldLs))], algo: coldAlgos[r.Intn(len(coldAlgos))]}
		if r.Intn(10) < 7 {
			pair := f.pairs[r.Intn(len(f.pairs))]
			q.rel, q.keywords = "Author", pair.name
			iq := g.query(q)
			// Lower bound: pairs partition the authors, so distinct
			// (pair, l, algo) queries never share a summary key. Paper
			// queries can overlap and are left out of the bound.
			keys[t][iq.params] = min(len(pair.authors), pageLimit)
			seq = append(seq, g.read(t, iq, false))
			continue
		}
		a := r.Intn(len(f.titleWords))
		b := (a + 1 + r.Intn(len(f.titleWords)-1)) % len(f.titleWords)
		q.rel, q.keywords = "Paper", f.titleWords[a]+" "+f.titleWords[b]
		o := g.read(t, g.query(q), false)
		o.keep = true
		seq = append(seq, o)
		lastPaper = &o
	}
	return seq
}

// rankedLs deals the l values 5..54 without replacement, a fresh seeded
// order every 50 draws, and so that any five draws in a row hold one value
// of each decade (5-14, 15-24, ...). An op's cost grows with l (a Customer
// scan at l=50 takes twice the time of one at l=10), so a sequence of
// independent draws makes one seed's run, and one window of a run, cheaper
// than the next; dealing keeps the distribution uniform and takes that
// difference out.
type rankedLs struct {
	r     *rand.Rand
	cycle []int
}

func (d *rankedLs) next() int {
	if len(d.cycle) == 0 {
		const decades, per = 5, 10
		var within [decades][]int
		for s := range within {
			within[s] = d.r.Perm(per)
		}
		for round := 0; round < per; round++ {
			for _, s := range d.r.Perm(decades) {
				d.cycle = append(d.cycle, 5+s*per+within[s][round])
			}
		}
	}
	l := d.cycle[0]
	d.cycle = d.cycle[1:]
	return l
}

// rankedOps deals a client's /ranked ops in hands of twelve: three Customer
// scans and one Supplier scan on each of the three tenants, in a seeded
// order, so the 75/25 mix and the spread over the tenants are exact in every
// hand. l is dealt per relation by rankedLs; the setting is drawn.
func (g *generator) rankedOps(r *rand.Rand, customers, suppliers []int, n int, keys []map[string]int) []op {
	var settings []string
	for _, s := range sizelos.DefaultSettings(nil, nil) {
		settings = append(settings, s.Name)
	}
	type slot struct {
		tenant   int
		supplier bool
	}
	var hand []slot
	for t := 0; t < numTenants; t++ {
		hand = append(hand, slot{t, false}, slot{t, false}, slot{t, false}, slot{t, true})
	}
	customerL, supplierL := &rankedLs{r: r}, &rankedLs{r: r}
	seq := make([]op, 0, n)
	for len(seq) < n {
		r.Shuffle(len(hand), func(a, b int) { hand[a], hand[b] = hand[b], hand[a] })
		for _, s := range hand {
			q := query{ranked: true, rel: "Customer", keywords: "customer", setting: settings[r.Intn(len(settings))]}
			candidates := customers[s.tenant]
			if s.supplier {
				q.rel, q.keywords, candidates = "Supplier", "supplier", suppliers[s.tenant]
				q.l = supplierL.next()
			} else {
				q.l = customerL.next()
			}
			iq := g.query(q)
			// /ranked summarises every candidate, so the count is exact.
			keys[s.tenant][iq.params] = candidates
			seq = append(seq, g.read(s.tenant, iq, false))
		}
	}
	return seq[:n]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

package tenancy

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sizelos"
	"sizelos/internal/datagen"
	"sizelos/internal/ostree"
	"sizelos/internal/relational"
	"sizelos/internal/sizel"
)

// summaryOf is the SummaryJSON the handler encodes for s.
func summaryOf(s sizelos.Summary) SummaryJSON {
	return SummaryJSON{
		Relation:   s.DSRel,
		Tuple:      int(s.Tuple),
		Headline:   s.Headline,
		Importance: s.Result.Importance,
		Tuples:     len(s.Result.Nodes),
		Text:       s.Text,
	}
}

// oracleBody is how the handler answered a page before summaries carried
// their encoded form: each summary copied into a SummaryJSON and the whole
// SearchResponse run through json.Encoder. It is the oracle of writeSearch.
func oracleBody(t *testing.T, head SearchResponse, page []sizelos.Summary) string {
	t.Helper()
	head.Results = make([]SummaryJSON, 0, len(page))
	for _, s := range page {
		head.Results = append(head.Results, summaryOf(s))
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(head); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// syntheticSummaries cover what encoding/json escapes or spells specially:
// HTML characters, U+2028/U+2029, control bytes and invalid UTF-8 in the
// strings, empty strings, and importances in exponent form and zero.
func syntheticSummaries() []sizelos.Summary {
	texts := []string{
		"Author: <a&b> \u2028line\u2029para \x00\x01\x1f \"quoted\" back\\slash\ttab\n",
		"bad \xff\xfe utf-8 \xc3 cut",
		"",
		"plain text",
	}
	headlines := []string{"", "<script>&amp;</script>", "\u2028\u2029", "Ada \xff"}
	importances := []float64{1e-7, 1e21, 0, 0.5, 123.456789, 1e-300}
	var out []sizelos.Summary
	for i := range 12 {
		out = append(out, sizelos.Summary{
			DSRel:    "Author",
			Tuple:    relational.TupleID(i * 7),
			Headline: headlines[i%len(headlines)],
			Result:   sizel.Result{Nodes: make([]ostree.NodeID, i%5), Importance: importances[i%len(importances)]},
			Text:     texts[i%len(texts)],
			Wire:     new(sizelos.Wire),
		})
	}
	return out
}

// encodeSummary is the fragment writeSearch writes for s alone.
func encodeSummary(t *testing.T, s *sizelos.Summary) string {
	t.Helper()
	const head = `{"tenant":"","relation":"","query":"","l":0,"count":0,"results":[`
	rec := httptest.NewRecorder()
	writeSearch(rec, SearchResponse{}, []sizelos.Summary{*s})
	body := rec.Body.String()
	if rec.Code != http.StatusOK || !strings.HasPrefix(body, head) || !strings.HasSuffix(body, "]}\n") {
		t.Fatalf("one-summary page %d %q", rec.Code, body)
	}
	return body[len(head) : len(body)-len("]}\n")]
}

// checkKept requires each summary's holder to keep json.Marshal of its
// SummaryJSON.
func checkKept(t *testing.T, sums []sizelos.Summary) {
	t.Helper()
	for i, s := range sums {
		want, err := json.Marshal(summaryOf(s))
		if err != nil {
			t.Fatal(err)
		}
		if kept := s.Wire.Load(); kept == nil || !bytes.Equal(*kept, want) {
			t.Fatalf("summary %d: holder keeps %v, want %q", i, kept, want)
		}
	}
}

// servedPage serves path twice over HTTP, then returns req's page from the
// tenant: what the cache holds, each holder filled by the second answer.
func servedPage(t *testing.T, h http.Handler, tn *Tenant, path string, req sizelos.QueryRequest) []sizelos.Summary {
	t.Helper()
	for range 2 {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
	}
	page, err := tn.QueryPage(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Summaries) == 0 {
		t.Fatalf("GET %s served no summaries", path)
	}
	return page.Summaries
}

// TestSummaryFragmentOracle: every fragment written and every one stored is
// json.Marshal of the summary's SummaryJSON, byte for byte — over seeded
// DBLP and TPC-H summaries the handler served twice, and over synthetic
// ones. The first encoding only marks the holder; the second stores.
func TestSummaryFragmentOracle(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		sums := syntheticSummaries()
		for i := range sums {
			want, err := json.Marshal(summaryOf(sums[i]))
			if err != nil {
				t.Fatal(err)
			}
			for try := range 3 {
				if got := encodeSummary(t, &sums[i]); got != string(want) {
					t.Fatalf("summary %d, try %d: fragment %q, want %q", i, try, got, want)
				}
				if kept := sums[i].Wire.Load(); try == 0 && (kept == nil || len(*kept) > 0) {
					t.Fatalf("summary %d: after one encoding the holder keeps %v, want an empty mark", i, kept)
				}
			}
		}
		checkKept(t, sums)
	})
	openTPCH := func(t *testing.T) *sizelos.Engine {
		eng, err := sizelos.OpenTPCH(datagen.TPCHConfig{Seed: 7, ScaleFactor: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	openDBLP := func(t *testing.T) *sizelos.Engine { return freshEngine(t, 23) }
	for _, c := range []struct {
		name string
		open func(*testing.T) *sizelos.Engine
		rel  string
		q    func(*sizelos.Engine) string
	}{
		{"dblp", openDBLP, "Author", func(eng *sizelos.Engine) string { return sharedAuthorQuery(t, eng) }},
		{"tpch", openTPCH, "Customer", func(*sizelos.Engine) string { return "customer" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// A tenant with the cache off keeps nothing, however often served.
			for _, budget := range []int{256, 0} {
				eng := c.open(t)
				reg := NewRegistry(ServerConfig{PoolSize: 2, CacheBudget: budget}, nil, nil)
				tn, err := reg.Register(TenantSpec{Name: "acme"}, eng)
				if err != nil {
					t.Fatal(err)
				}
				q := c.q(eng)
				for _, l := range []int{3, 12} {
					req := sizelos.QueryRequest{Rel: c.rel, Query: q, L: l, Limit: 40}
					path := "/v1/acme/search?rel=" + c.rel + "&q=" + url.QueryEscape(q) + "&l=" + strconv.Itoa(l) + "&limit=40"
					page := servedPage(t, reg.Handler(), tn, path, req)
					if budget > 0 {
						checkKept(t, page)
						continue
					}
					for i, s := range page {
						if kept := s.Wire.Load(); kept != nil {
							t.Fatalf("cache off, summary %d: holder keeps %q", i, *kept)
						}
					}
				}
			}
		})
	}
}

// TestSearchEnvelopeOracle: the hand-written page equals json.Encoder's
// encoding of the whole SearchResponse, trailing newline included, with
// Content-Length == len(body): empty pages, pages with and without a
// cursor, /search and /ranked, and strings that need escaping.
func TestSearchEnvelopeOracle(t *testing.T) {
	check := func(t *testing.T, rec *httptest.ResponseRecorder, want string) {
		t.Helper()
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("got %d %q\nwant %q", rec.Code, rec.Body, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
		}
	}
	t.Run("direct", func(t *testing.T) {
		sums := syntheticSummaries()
		for _, head := range []SearchResponse{
			{Tenant: "acme", Relation: "Author", Query: "faloutsos", L: 15},
			{Tenant: "<a&b>\u2028", Relation: "Author", Query: "<a&b>\u2028\xff", L: 3, Cursor: "AAEC-_x"},
			{Tenant: "acme", Relation: "Author", Query: "x", L: 1, Cursor: "<&>"},
			{Tenant: "acme", Relation: "Author", Query: "x", L: 1},
		} {
			// Three rounds: unmarked, marked and stored holders.
			for range 3 {
				for _, page := range [][]sizelos.Summary{nil, sums[:1], sums} {
					head.Count = len(page)
					rec := httptest.NewRecorder()
					writeSearch(rec, head, page)
					check(t, rec, oracleBody(t, head, page))
				}
			}
		}
	})
	t.Run("http", func(t *testing.T) {
		eng := freshEngine(t, 29)
		reg := NewRegistry(ServerConfig{PoolSize: 2, CacheBudget: 256}, nil, nil)
		tn, err := reg.Register(TenantSpec{Name: "acme"}, eng)
		if err != nil {
			t.Fatal(err)
		}
		shared := sharedAuthorQuery(t, eng)
		for _, ranked := range []bool{false, true} {
			for _, q := range []string{shared, shared + " <a&b>\u2028", "zzzznomatch"} {
				endpoint := "search"
				if ranked {
					endpoint = "ranked"
				}
				req := sizelos.QueryRequest{Rel: "Author", Query: q, L: 6, Limit: 2, RankBySummary: ranked}
				if ranked {
					req.K = 10
				}
				// Walk the pages: every one but the last carries a cursor.
				for pages := 0; ; pages++ {
					params := url.Values{"rel": {"Author"}, "q": {q}, "l": {"6"}, "limit": {"2"}}
					if req.Cursor != "" {
						params.Set("cursor", req.Cursor)
					}
					rec := httptest.NewRecorder()
					reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/acme/"+endpoint+"?"+params.Encode(), nil))
					page, err := tn.QueryPage(req)
					if err != nil {
						t.Fatal(err)
					}
					check(t, rec, oracleBody(t, SearchResponse{
						Tenant: "acme", Relation: "Author", Query: q, L: 6,
						Count: len(page.Summaries), Cursor: page.Cursor,
					}, page.Summaries))
					if page.Cursor == "" || pages > 50 {
						break
					}
					req.Cursor = page.Cursor
				}
			}
		}
	})
}

// TestSearchEncodeFailure: a summary encoding/json rejects answers the 500
// internal envelope with its own Content-Length, stores nothing in its
// holder, and answers the same 500 again.
func TestSearchEncodeFailure(t *testing.T) {
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		page := syntheticSummaries()[:2]
		page[1].Result.Importance = bad
		var first string
		for try := range 2 {
			rec := httptest.NewRecorder()
			writeSearch(rec, SearchResponse{Tenant: "acme", Relation: "Author", Query: "x", L: 5, Count: 2}, page)
			if rec.Code != http.StatusInternalServerError {
				t.Fatalf("Importance %v, try %d: status %d, want 500 (body %q)", bad, try, rec.Code, rec.Body)
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
			}
			dec := json.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
			dec.DisallowUnknownFields()
			var e ErrorResponse
			if err := dec.Decode(&e); err != nil {
				t.Fatalf("500 body is not an ErrorResponse: %v", err)
			}
			if e.Error.Code != CodeInternal || e.Error.Retryable || !strings.Contains(e.Error.Message, strconv.FormatFloat(bad, 'g', -1, 64)) {
				t.Fatalf("envelope %+v, want a non-retryable %s naming the value", e.Error, CodeInternal)
			}
			if try == 0 {
				first = rec.Body.String()
			} else if rec.Body.String() != first {
				t.Fatalf("repeat answered %q, first %q", rec.Body, first)
			}
			if kept := page[1].Wire.Load(); kept != nil {
				t.Fatalf("holder of the failed summary keeps %q", *kept)
			}
		}
	}
}

// TestSummaryFragmentRace: many requests for the same freshly cached page
// at once, twice, mark then fill its holders race-free, and every body is
// the oracle's.
func TestSummaryFragmentRace(t *testing.T) {
	eng := freshEngine(t, 31)
	reg := NewRegistry(ServerConfig{PoolSize: 2, CacheBudget: 64}, nil, nil)
	tn, err := reg.Register(TenantSpec{Name: "acme"}, eng)
	if err != nil {
		t.Fatal(err)
	}
	q := sharedAuthorQuery(t, eng)
	req := sizelos.QueryRequest{Rel: "Author", Query: q, L: 10}
	// Cache the page without serving it: its holders start empty.
	cached, err := tn.QueryPage(req)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range cached.Summaries {
		if s.Wire == nil || s.Wire.Load() != nil {
			t.Fatalf("summary %d: want an empty holder before the first answer", i)
		}
	}
	want := oracleBody(t, SearchResponse{Tenant: "acme", Relation: "Author", Query: q, L: 10, Count: len(cached.Summaries)}, cached.Summaries)
	h := reg.Handler()
	const clients = 16
	// After the first burst every holder is marked or filled, so in the
	// second every request that finds a mark races to fill it.
	for burst := range 2 {
		bodies := make([]string, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/acme/search?rel=Author&l=10&q="+url.QueryEscape(q), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("client %d: status %d", i, rec.Code)
				}
				bodies[i] = rec.Body.String()
			}()
		}
		close(start)
		wg.Wait()
		for i, body := range bodies {
			if body != want {
				t.Fatalf("burst %d, client %d: body %q\nwant %q", burst, i, body, want)
			}
		}
	}
	again, err := tn.QueryPage(req)
	if err != nil {
		t.Fatal(err)
	}
	checkKept(t, again.Summaries)
}

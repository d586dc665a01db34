package tenancy

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"sizelos"
	"sizelos/internal/keyword"
	"sizelos/internal/relational"
)

// pagingServer registers a private engine (its own seed — pagination tests
// mutate it) and returns the test server plus a keyword that at least three
// authors share, so a limit-1 walk turns pages.
func pagingServer(t *testing.T, seed int64) (*httptest.Server, *Tenant, string) {
	t.Helper()
	eng := testEngine(t, seed)
	reg := NewRegistry(ServerConfig{PoolSize: 2}, nil, nil)
	tn, err := reg.Register(TenantSpec{Name: "acme"}, eng)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return srv, tn, sharedAuthorQuery(t, eng)
}

// sharedAuthorQuery returns the rarest keyword that at least three Author
// tuples contain (ties to the smallest), read off the fixture itself.
func sharedAuthorQuery(t *testing.T, eng *sizelos.Engine) string {
	t.Helper()
	const n = 3
	rel := eng.DB().Relation("Author")
	holders := map[string]int{}
	for _, tup := range rel.Tuples {
		seen := map[string]bool{}
		for ci, col := range rel.Columns {
			if col.Kind != relational.KindString {
				continue
			}
			for _, tok := range keyword.Tokenize(tup[ci].Str) {
				if !seen[tok] {
					seen[tok] = true
					holders[tok]++
				}
			}
		}
	}
	best := ""
	for tok, c := range holders {
		if c >= n && (best == "" || c < holders[best] || c == holders[best] && tok < best) {
			best = tok
		}
	}
	if best == "" {
		t.Fatalf("no keyword is shared by %d authors of the fixture", n)
	}
	return best
}

func getJSON(t *testing.T, url string, wantStatus int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("GET %s = %d (want %d): %s", url, resp.StatusCode, wantStatus, e.Error.Message)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
}

// TestHTTPPaginationWalk pages through /search with limit+cursor and
// requires the concatenation to equal the unpaged response exactly, with
// every page within the limit and the final page carrying no cursor.
func TestHTTPPaginationWalk(t *testing.T) {
	srv, _, q := pagingServer(t, 701)

	var full SearchResponse
	getJSON(t, fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=6", srv.URL, q), http.StatusOK, &full)
	if full.Count < 3 {
		t.Fatalf("fixture keyword %q matched %d authors; need >= 3 to page", q, full.Count)
	}
	if full.Cursor != "" {
		t.Fatalf("unpaged response carries cursor %q", full.Cursor)
	}

	var paged []SummaryJSON
	cursor := ""
	pages := 0
	for {
		url := fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=6&limit=1", srv.URL, q)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page SearchResponse
		getJSON(t, url, http.StatusOK, &page)
		if len(page.Results) > 1 {
			t.Fatalf("page %d has %d results, limit 1", pages, len(page.Results))
		}
		paged = append(paged, page.Results...)
		pages++
		if pages > full.Count+1 {
			t.Fatalf("pagination did not terminate after %d pages", pages)
		}
		if page.Cursor == "" {
			break
		}
		cursor = page.Cursor
	}
	if len(paged) != full.Count {
		t.Fatalf("paged walk yielded %d results, unpaged %d", len(paged), full.Count)
	}
	for i := range paged {
		if paged[i] != full.Results[i] {
			t.Fatalf("paged result %d diverges:\n%+v\nvs\n%+v", i, paged[i], full.Results[i])
		}
	}

	// The ranked surface pages identically.
	var ranked SearchResponse
	getJSON(t, fmt.Sprintf("%s/v1/acme/ranked?rel=Author&q=%s&l=6&k=%d", srv.URL, q, full.Count), http.StatusOK, &ranked)
	var rankedPaged []SummaryJSON
	cursor = ""
	for {
		url := fmt.Sprintf("%s/v1/acme/ranked?rel=Author&q=%s&l=6&k=%d&limit=1", srv.URL, q, full.Count)
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var page SearchResponse
		getJSON(t, url, http.StatusOK, &page)
		rankedPaged = append(rankedPaged, page.Results...)
		if page.Cursor == "" {
			break
		}
		cursor = page.Cursor
	}
	if len(rankedPaged) != ranked.Count {
		t.Fatalf("ranked paged walk yielded %d results, unpaged %d", len(rankedPaged), ranked.Count)
	}
	for i := range rankedPaged {
		if rankedPaged[i] != ranked.Results[i] {
			t.Fatalf("ranked paged result %d diverges", i)
		}
	}
}

// TestHTTPCursorParamValidation pins the 400 surface: a cursor that never
// came from the service — garbage, or a genuine one whose position bytes
// were rewritten past the answer (once a 500 from /ranked) — and limit's
// removed legacy name topk — refused with a message naming limit, on both
// endpoints, never silently ignored (an old client would otherwise receive
// an unbounded page).
func TestHTTPCursorParamValidation(t *testing.T) {
	srv, _, q := pagingServer(t, 701)
	base := fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=6", srv.URL, q)
	getJSON(t, base+"&cursor=not-a-cursor", http.StatusBadRequest, nil)
	for _, endpoint := range []string{"search", "ranked"} {
		u := fmt.Sprintf("%s/v1/acme/%s?rel=Author&q=Faloutsos&l=6&limit=1", srv.URL, endpoint)
		var first SearchResponse
		getJSON(t, u, http.StatusOK, &first)
		raw, err := base64.RawURLEncoding.DecodeString(first.Cursor)
		if err != nil || len(raw) != 24 {
			t.Fatalf("GET %s: cursor %q is not 24 base64url bytes (%v)", u, first.Cursor, err)
		}
		for _, pos := range []uint64{0x8000000000000000, 0xffffffffffffffff} {
			binary.BigEndian.PutUint64(raw[16:], pos)
			var e ErrorResponse
			getJSON(t, u+"&cursor="+base64.RawURLEncoding.EncodeToString(raw), http.StatusBadRequest, &e)
			if e.Error.Code != CodeBadRequest {
				t.Fatalf("GET %s at forged position %#x: error %+v, want %s", u, pos, e.Error, CodeBadRequest)
			}
		}
	}
	var limited SearchResponse
	getJSON(t, base+"&limit=1", http.StatusOK, &limited)
	if limited.Count != 1 {
		t.Fatalf("limit=1 returned %d results", limited.Count)
	}
	for _, u := range []string{
		base + "&topk=1",
		base + "&topk=",
		strings.Replace(base, "/search?", "/ranked?", 1) + "&topk=1",
	} {
		var e ErrorResponse
		getJSON(t, u, http.StatusBadRequest, &e)
		if e.Error.Code != CodeBadRequest || !strings.Contains(e.Error.Message, "limit") {
			t.Fatalf("GET %s: error %+v does not name limit", u, e.Error)
		}
	}
}

// TestHTTPCursorSurvivesNothingButQuiescence is the torn-page proof: a
// cursor minted before a mutation must come back 410 Gone, and a cursor
// spliced onto a different query must not resume anything.
func TestHTTPCursorInvalidatedByMutation(t *testing.T) {
	srv, tn, q := pagingServer(t, 702)

	var page SearchResponse
	getJSON(t, fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=6&limit=1", srv.URL, q), http.StatusOK, &page)
	if page.Cursor == "" {
		t.Fatalf("fixture keyword %q matched too few authors to leave a cursor", q)
	}

	// A cursor bound to one query must not leak into another (different l
	// -> different fingerprint -> 410, not a page of wrong-l summaries).
	getJSON(t, fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=7&limit=1&cursor=%s", srv.URL, q, page.Cursor),
		http.StatusGone, nil)

	// Mutate the Author dependency set; the resume must be refused.
	if _, err := tn.Mutate(sizelos.MutationBatch{Inserts: []sizelos.TupleInsert{
		{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(880001), relational.StrVal("Cursorbreaker Page")}},
	}}); err != nil {
		t.Fatal(err)
	}
	getJSON(t, fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=6&limit=1&cursor=%s", srv.URL, q, page.Cursor),
		http.StatusGone, nil)

	// A fresh first page works fine against the mutated state.
	var fresh SearchResponse
	getJSON(t, fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=6&limit=1", srv.URL, q), http.StatusOK, &fresh)
}

// TestCursorRaceWithMutation races page walks against mutations and checks
// every response is either a clean page or a clean 410 — never an error,
// never a torn page (page size over limit, or summaries from mixed states).
// Run under -race this also proves the streaming path is data-race free.
func TestCursorRaceWithMutation(t *testing.T) {
	srv, tn, q := pagingServer(t, 703)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		pk := int64(890001)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tn.Mutate(sizelos.MutationBatch{Inserts: []sizelos.TupleInsert{
				{Rel: "Author", Tuple: relational.Tuple{relational.IntVal(pk), relational.StrVal("Racer Mutationsen")}},
			}}); err != nil {
				t.Error(err)
				return
			}
			pk++
		}
	}()

	for walk := 0; walk < 12; walk++ {
		cursor := ""
		for hops := 0; hops < 50; hops++ {
			url := fmt.Sprintf("%s/v1/acme/search?rel=Author&q=%s&l=4&limit=1", srv.URL, q)
			if cursor != "" {
				url += "&cursor=" + cursor
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			var page SearchResponse
			switch resp.StatusCode {
			case http.StatusOK:
				if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
					t.Fatalf("decode: %v", err)
				}
			case http.StatusGone:
				// Clean invalidation: restart the walk from the top.
				resp.Body.Close()
				cursor = ""
				continue
			default:
				t.Fatalf("walk %d hop %d: status %d", walk, hops, resp.StatusCode)
			}
			resp.Body.Close()
			if len(page.Results) > 1 {
				t.Fatalf("torn page: %d results with limit 1", len(page.Results))
			}
			if page.Cursor == "" {
				break
			}
			cursor = page.Cursor
		}
	}
	close(stop)
	wg.Wait()
}

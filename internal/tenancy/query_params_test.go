package tenancy

import (
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"sizelos"
)

// queryFromValues is queryFromURL as it read a url.Values map before the
// one-pass parser: the oracle FuzzQueryParams holds parseQueryParams and
// queryFromURL to.
func queryFromValues(params url.Values, ranked bool) (sizelos.QueryRequest, error) {
	q := sizelos.QueryRequest{
		Rel:           params.Get("rel"),
		Query:         params.Get("q"),
		L:             15,
		Setting:       params.Get("setting"),
		Algorithm:     sizelos.Algorithm(params.Get("algo")),
		RankBySummary: ranked,
		Cursor:        params.Get("cursor"),
	}
	if ranked {
		q.K = 10
	}
	if q.Rel == "" || q.Query == "" {
		return q, BadRequest("rel and q parameters are required")
	}
	if params.Has("topk") {
		return q, BadRequest("topk is no longer accepted: use limit")
	}
	if !ranked && params.Get("k") != "" {
		return q, BadRequest("k applies to /ranked only (use limit on /search)")
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"l", &q.L}, {"k", &q.K}, {"limit", &q.Limit}} {
		raw := params.Get(p.name)
		if raw == "" {
			continue
		}
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 || (p.name == "k" && v < 1) {
			return q, BadRequest("invalid %s parameter", p.name)
		}
		*p.dst = v
	}
	return q, nil
}

// FuzzQueryParams: for any raw query, the one-pass parser reads every name
// queryFromURL uses as url.Values does (req.URL.Query(), which drops what
// ParseQuery rejects), and the request or 400 built from it is the one the
// map built. The seeds cover first-value-wins, '+' and %-escapes in names
// and values, ';' pairs, bad escapes, empty and name-only pairs, topk with
// and without a value, and each 400; the committed corpus mirrors them
// (testdata/fuzz/FuzzQueryParams).
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []string{
		"rel=Author&q=Faloutsos&l=10&limit=5",
		"rel=Author&q=a+b&q=second&setting=GA1-d2&algo=dp&cursor=abc",
		"%72el=Author&q=%46aloutsos&%6C=7",
		"rel=Author;x=1&rel=Paper&q=x",
		"rel=%zz&rel=Paper&q=bad%2&q=good",
		"&&=v&rel&q=&rel=Author&q=x",
		"rel=Author&q=x&topk",
		"rel=Author&q=x&topk=%gg&topk=3",
		"rel=Customer&q=customer&k=0&limit=-1",
		"rel=Author&q=x&k=3",
		"rel=Author&q=x&l=abc&k=2",
		"rel=A%26B&q=%3B&limit=%2B4",
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, raw string, ranked bool) {
		values, _ := url.ParseQuery(raw)
		got := parseQueryParams(raw)
		want := queryParams{
			rel: values.Get("rel"), q: values.Get("q"), setting: values.Get("setting"),
			algo: values.Get("algo"), cursor: values.Get("cursor"),
			k: values.Get("k"), l: values.Get("l"), limit: values.Get("limit"),
			topk: values.Has("topk"),
		}
		if got != want {
			t.Fatalf("parseQueryParams(%q) = %+v, url.Values %+v", raw, got, want)
		}
		gotQ, gotErr := queryFromURL(got, ranked)
		wantQ, wantErr := queryFromValues(values, ranked)
		if !reflect.DeepEqual(gotQ, wantQ) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Fatalf("queryFromURL(%q, %v) = %+v, %v; url.Values %+v, %v", raw, ranked, gotQ, gotErr, wantQ, wantErr)
		}
	})
}

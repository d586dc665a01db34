package keyword

import (
	"slices"
	"sort"
	"strings"

	"sizelos/internal/relational"
)

// scanIndex is the tests' reference index: rel -> token -> ascending ids,
// one flat map with no shards.
type scanIndex map[string]map[string][]relational.TupleID

func (sc scanIndex) add(rel, tok string, ids ...relational.TupleID) {
	if sc[rel] == nil {
		sc[rel] = make(map[string][]relational.TupleID)
	}
	sc[rel][tok] = append(sc[rel][tok], ids...)
}

// scanPostings builds the reference by the plainest scan there is: for each
// live tuple, tokenize every string column and record the tuple once per
// distinct token. It shares no code with the index's postings — no
// tail-dedup, no shard routing, no intersection.
func scanPostings(db *relational.DB) scanIndex {
	sc := make(scanIndex)
	for _, rel := range db.Relations {
		for ti, tup := range rel.Tuples {
			if rel.Deleted(relational.TupleID(ti)) {
				continue
			}
			seen := make(map[string]bool)
			for ci, col := range rel.Columns {
				if col.Kind != relational.KindString {
					continue
				}
				for _, tok := range Tokenize(tup[ci].Str) {
					if !seen[tok] {
						seen[tok] = true
						sc.add(rel.Name, tok, relational.TupleID(ti))
					}
				}
			}
		}
	}
	return sc
}

// lookup answers an AND query from the scan: the ids of the first
// keyword's list found in every other keyword's list; nil when none.
func (sc scanIndex) lookup(rel string, keywords []string) []relational.TupleID {
	if len(keywords) == 0 {
		return nil
	}
	var out []relational.TupleID
next:
	for _, id := range sc[rel][strings.ToLower(keywords[0])] {
		for _, kw := range keywords[1:] {
			if _, found := slices.BinarySearch(sc[rel][strings.ToLower(kw)], id); !found {
				continue next
			}
		}
		out = append(out, id)
	}
	return out
}

// corpusTokens returns every (relation, token) pair of the scan, sorted for
// reproducible iteration.
func corpusTokens(sc scanIndex) [][2]string {
	var out [][2]string
	for rel, tokens := range sc {
		for tok := range tokens {
			out = append(out, [2]string{rel, tok})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

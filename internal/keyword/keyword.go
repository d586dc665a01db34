package keyword

import (
	"strings"
	"unicode"

	"sizelos/internal/relational"
)

// Match is one data-subject candidate for a keyword query.
type Match struct {
	Relation string
	Tuple    relational.TupleID
	// Score is the tuple's global importance under the ranking setting the
	// index was asked to rank with; candidates are returned best-first.
	Score float64
}

// Index is the flat inverted index token -> tuples, per relation. It is the
// serial reference implementation; Sharded must match it bit for bit.
type Index struct {
	db *relational.DB
	// postings[rel][token] lists tuple ids containing token in any string
	// attribute, in ascending order without duplicates.
	postings map[string]map[string][]relational.TupleID
}

// Tokenize lower-cases and splits a string on any non-letter/digit rune.
// It is exported so queries and documents are guaranteed to agree.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// BuildIndex indexes every string attribute of every relation.
//
// Tuples are scanned tuple-major (all string columns of tuple i before any
// column of tuple i+1) so postings stay ascending and a token occurring in
// several columns of the same tuple — or several times in one value —
// yields a single posting.
func BuildIndex(db *relational.DB) *Index {
	idx := &Index{db: db, postings: make(map[string]map[string][]relational.TupleID, len(db.Relations))}
	for _, rel := range db.Relations {
		tokens := make(map[string][]relational.TupleID)
		indexTuples(rel, stringColumns(rel), 0, rel.Len(), tokens)
		idx.postings[rel.Name] = tokens
	}
	return idx
}

// stringColumns returns the ordinals of rel's string-kind columns.
func stringColumns(rel *relational.Relation) []int {
	var cols []int
	for ci, col := range rel.Columns {
		if col.Kind == relational.KindString {
			cols = append(cols, ci)
		}
	}
	return cols
}

// postToken appends ti to tok's posting list unless ti is already the
// list's tail: the one dedup rule every build and maintenance path shares.
// It assumes tuple-major scans with ascending ids (so a tuple's repeat
// occurrences — a token in several columns, or several times in one value
// — are always the current tail), which is what keeps posting lists
// ascending and duplicate-free across all layouts.
func postToken(tokens map[string][]relational.TupleID, tok string, ti relational.TupleID) {
	list := tokens[tok]
	if len(list) > 0 && list[len(list)-1] == ti {
		return // same tuple already posted for this token
	}
	tokens[tok] = append(list, ti)
}

// indexTuples tokenizes the live tuples of [lo, hi) of rel into tokens,
// tuple-major; tombstoned slots contribute nothing.
func indexTuples(rel *relational.Relation, strCols []int, lo, hi int, tokens map[string][]relational.TupleID) {
	for ti := lo; ti < hi; ti++ {
		if rel.Deleted(relational.TupleID(ti)) {
			continue
		}
		tup := rel.Tuples[ti]
		for _, ci := range strCols {
			for _, tok := range Tokenize(tup[ci].Str) {
				postToken(tokens, tok, relational.TupleID(ti))
			}
		}
	}
}

// Lookup returns the tuples of one relation containing every keyword
// (logical AND over tokens, the R-KwS candidate semantics for a single
// relation).
func (idx *Index) Lookup(rel string, keywords []string) []relational.TupleID {
	tokens := idx.postings[rel]
	if tokens == nil || len(keywords) == 0 {
		return nil
	}
	var acc []relational.TupleID
	for i, kw := range keywords {
		list := tokens[strings.ToLower(kw)]
		if len(list) == 0 {
			return nil
		}
		if i == 0 {
			acc = append([]relational.TupleID(nil), list...)
			continue
		}
		acc = intersect(acc, list)
		if len(acc) == 0 {
			return nil
		}
	}
	return acc
}

// intersect merges two ascending posting lists.
func intersect(a, b []relational.TupleID) []relational.TupleID {
	var out []relational.TupleID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Search finds the data-subject candidates for a keyword query within the
// given DS relation, ranked by descending global importance (ties by tuple
// id). This mirrors the paper's Q1: "Faloutsos" against Author returns the
// three brothers, each of which roots an OS. Implemented as a full drain of
// SearchStream so the materialized and streaming surfaces cannot drift.
func (idx *Index) Search(dsRel string, query string, scores relational.DBScores) []Match {
	return drainStream(idx.SearchStream(dsRel, query, scores))
}

// matchLess is the global best-first order: score desc, relation asc,
// tuple asc. Total over any one database, so every layout agrees.
func matchLess(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Relation != b.Relation {
		return a.Relation < b.Relation
	}
	return a.Tuple < b.Tuple
}

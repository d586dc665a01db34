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

// Tokenize lower-cases and splits a string on any non-letter/digit rune.
// It is exported so queries and documents are guaranteed to agree.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
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

// tokenizeTuple posts tuple ti of rel into perShard: every token of every
// string column goes into the map of the shard it hashes to, allocated on
// first use. A token ti already posted — from another column, or earlier
// in the same value — is the list's tail and is skipped. That tail-dedup
// rule assumes the caller posts tuples in ascending id order, which is
// what keeps every posting list ascending and duplicate-free.
func tokenizeTuple(perShard []map[string][]relational.TupleID, rel *relational.Relation, strCols []int, ti relational.TupleID) {
	tup := rel.Tuples[ti]
	for _, ci := range strCols {
		for _, tok := range Tokenize(tup[ci].Str) {
			s := shardOf(tok, len(perShard))
			if perShard[s] == nil {
				perShard[s] = make(map[string][]relational.TupleID)
			}
			list := perShard[s][tok]
			if n := len(list); n > 0 && list[n-1] == ti {
				continue // same tuple already posted for this token
			}
			perShard[s][tok] = append(list, ti)
		}
	}
}

// matchLess is the global best-first order: score desc, relation asc,
// tuple asc. Total over any one database, so every shard count agrees.
func matchLess(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Relation != b.Relation {
		return a.Relation < b.Relation
	}
	return a.Tuple < b.Tuple
}

package relational

import "sort"

// Scores holds one global-importance score per tuple of a relation, indexed
// by TupleID. Scores are produced by the ranking layer (ObjectRank or
// ValueRank) and kept outside the storage engine because a database has one
// set of tuples but many importance settings (GA1-d1, GA1-d2, ...).
type Scores []float64

// DBScores maps relation name to its per-tuple scores under one ranking
// setting.
type DBScores map[string]Scores

// Scaled is one relation's scores served at a scale: a setting keeps its
// raw vectors and one presentation factor apart, so a re-rank writes no
// rescaled copy.
type Scaled struct {
	Raw Scores
	F   float64
}

// At is tuple t's served score. The conversion rounds the product on its
// own, so no architecture fuses it into a later add: it is bit for bit the
// entry a vector rescaled by F in place would hold.
func (s Scaled) At(t TupleID) float64 { return float64(s.Raw[t] * s.F) }

// MaxScore returns the maximum score in s, or 0 for an empty relation. It is
// the global statistic behind the paper's max(Ri) annotation (Def. 2).
func (s Scores) MaxScore() float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// JoinChildren returns, in insertion order, the tuples of r whose foreign
// key fkOrd equals key: the paper's Ri(tj) extraction
// "SELECT * FROM Ri WHERE tj.ID = Ri.ID" (Alg. 5 line 6). One database
// access is charged.
func (db *DB) JoinChildren(r *Relation, fkOrd int, key int64) []TupleID {
	db.accesses.Add(1)
	return r.fkIndex[fkOrd][key]
}

// LookupParent resolves the M:1 side of a join: the single tuple in parent
// referenced by the FK value key. One access is charged.
func (db *DB) LookupParent(parent *Relation, key int64) (TupleID, bool) {
	db.accesses.Add(1)
	id, ok := parent.LookupPK(key)
	return id, ok
}

// OrderedFKIndex is a foreign-key index whose posting lists are sorted by
// descending tuple score (ties broken by ascending TupleID for determinism).
// It supports Avoidance Condition 2 of the prelim-l generation (Alg. 4 line
// 10): extracting only the up-to-l joining tuples whose local importance
// exceeds the current largest-l, without computing the complete join.
//
// Because the local importance of every tuple of a relation is its global
// score times the relation's (constant) affinity, ordering by global score
// is identical to ordering by local importance, so one index per
// (relation, FK, ranking-setting) serves all affinity values.
type OrderedFKIndex struct {
	rel    *Relation
	fkOrd  int
	scores Scores
	lists  map[int64][]TupleID
}

// BuildOrderedFKIndex sorts every posting list of the given FK of r by
// descending score.
func BuildOrderedFKIndex(r *Relation, fkOrd int, scores Scores) *OrderedFKIndex {
	idx := &OrderedFKIndex{
		rel:    r,
		fkOrd:  fkOrd,
		scores: scores,
		lists:  make(map[int64][]TupleID, len(r.fkIndex[fkOrd])),
	}
	for key, ids := range r.fkIndex[fkOrd] {
		sorted := make([]TupleID, len(ids))
		copy(sorted, ids)
		sort.Slice(sorted, func(a, b int) bool {
			sa, sb := scores[sorted[a]], scores[sorted[b]]
			if sa != sb {
				return sa > sb
			}
			return sorted[a] < sorted[b]
		})
		idx.lists[key] = sorted
	}
	return idx
}

// TopL returns up to limit tuples joining key whose global score is strictly
// greater than minScore, in descending score order. One access is charged to
// the database even when the result is empty — the paper notes Avoidance
// Condition 2 "still requires an I/O access even when it returns no results"
// (§5.3).
func (idx *OrderedFKIndex) TopL(db *DB, key int64, minScore float64, limit int) []TupleID {
	db.accesses.Add(1)
	list := idx.lists[key]
	var out []TupleID
	for _, id := range list {
		if len(out) >= limit {
			break
		}
		if idx.scores[id] <= minScore {
			break // sorted descending: nothing further qualifies
		}
		out = append(out, id)
	}
	return out
}

// Accesses returns the number of extraction operations charged so far.
func (db *DB) Accesses() int64 { return db.accesses.Load() }

// ChargeAccess charges one extraction to the database, for access paths
// implemented outside this package (e.g. the junction hop's second join).
func (db *DB) ChargeAccess() { db.accesses.Add(1) }

// ResetAccesses zeroes the access counter and returns its previous value.
func (db *DB) ResetAccesses() int64 {
	return db.accesses.Swap(0)
}

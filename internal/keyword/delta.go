package keyword

// This file implements incremental index maintenance: when the database
// mutates, the engine retracts the postings of deleted tuples and adds
// those of inserted ones instead of re-tokenizing the whole corpus, routing
// each touched token to the one FNV shard it lives in. The result is
// required to be bit-identical to a from-scratch rebuild over the mutated
// database.

import "sizelos/internal/relational"

// removePostings filters the ascending ids out of the ascending posting
// list in one linear merge, preserving order.
func removePostings(list, ids []relational.TupleID) []relational.TupleID {
	out := list[:0]
	j := 0
	for _, id := range list {
		for j < len(ids) && ids[j] < id {
			j++
		}
		if j < len(ids) && ids[j] == id {
			continue
		}
		out = append(out, id)
	}
	return out
}

// mergePostings merges the ascending ids into the ascending posting list,
// deduplicating, so the result is exactly what a rebuild would produce. The
// common case — fresh inserts carry ids larger than every existing posting
// — degenerates to an append.
func mergePostings(list, ids []relational.TupleID) []relational.TupleID {
	if len(list) == 0 || list[len(list)-1] < ids[0] {
		return append(list, ids...)
	}
	out := make([]relational.TupleID, 0, len(list)+len(ids))
	i, j := 0, 0
	for i < len(list) && j < len(ids) {
		switch {
		case list[i] < ids[j]:
			out = append(out, list[i])
			i++
		case ids[j] < list[i]:
			out = append(out, ids[j])
			j++
		default:
			out = append(out, list[i])
			i++
			j++
		}
	}
	out = append(out, list[i:]...)
	out = append(out, ids[j:]...)
	return out
}

// applyToPostings folds removal and addition token maps into one relation's
// token -> postings map, deleting entries that empty out (a rebuild never
// materializes an empty posting list).
func applyToPostings(postings map[string][]relational.TupleID, rem, add map[string][]relational.TupleID) {
	for tok, ids := range rem {
		list := removePostings(postings[tok], ids)
		if len(list) == 0 {
			delete(postings, tok)
		} else {
			postings[tok] = list
		}
	}
	for tok, ids := range add {
		postings[tok] = mergePostings(postings[tok], ids)
	}
}

// Apply folds one relation's mutation batch into the index. inserted and
// deleted are ascending TupleID lists; deleted tuples must still hold their
// content (the storage layer's tombstones guarantee this) so their tokens
// can be retracted. Each tuple is tokenized straight into per-shard deltas
// by the hash that placed its tokens at build time, then every touched
// shard folds its slice — a handful of tokens, far too few to be worth a
// goroutine per shard. Apply is not safe to run concurrently with lookups:
// the engine holds its write lock across mutations.
func (idx *Sharded) Apply(rel string, inserted, deleted []relational.TupleID) {
	r := idx.db.Relation(rel)
	if r == nil {
		return
	}
	strCols := stringColumns(r)
	if len(strCols) == 0 {
		return
	}
	rem := make([]map[string][]relational.TupleID, len(idx.shards))
	add := make([]map[string][]relational.TupleID, len(idx.shards))
	for _, ti := range deleted {
		tokenizeTuple(rem, r, strCols, ti)
	}
	for _, ti := range inserted {
		tokenizeTuple(add, r, strCols, ti)
	}
	for s, shard := range idx.shards {
		if len(rem[s]) == 0 && len(add[s]) == 0 {
			continue
		}
		relMap := shard[rel]
		if relMap == nil {
			relMap = make(map[string][]relational.TupleID, len(add[s]))
			shard[rel] = relMap
		}
		applyToPostings(relMap, rem[s], add[s])
	}
}

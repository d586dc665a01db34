package keyword

// This file implements incremental index maintenance: when the database
// mutates, the engine retracts the postings of deleted tuples and adds
// those of inserted ones instead of re-tokenizing the whole corpus. Both
// layouts have the same Apply and are required to end up bit-identical to
// a from-scratch rebuild over the mutated database — the
// flat index by merging into its single posting map, the sharded index by
// routing each touched token to the one FNV shard it lives in.

import "sizelos/internal/relational"

// collectTokens tokenizes the given tuples of rel tuple-major into a
// token -> ascending deduplicated ids map. Unlike indexTuples it takes an
// explicit id list and ignores tombstones: the delete path tokenizes tuples
// that are already tombstoned.
func collectTokens(rel *relational.Relation, strCols []int, ids []relational.TupleID) map[string][]relational.TupleID {
	if len(ids) == 0 || len(strCols) == 0 {
		return nil
	}
	tokens := make(map[string][]relational.TupleID)
	for _, ti := range ids {
		tup := rel.Tuples[ti]
		for _, ci := range strCols {
			for _, tok := range Tokenize(tup[ci].Str) {
				postToken(tokens, tok, ti)
			}
		}
	}
	return tokens
}

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

// Apply folds one relation's mutation batch into the flat index. inserted
// and deleted are ascending TupleID lists; deleted tuples must still hold
// their content (the storage layer's tombstones guarantee this) so their
// tokens can be retracted. Apply is not safe to run concurrently with
// lookups — callers serialize mutations against in-flight searches.
func (idx *Index) Apply(rel string, inserted, deleted []relational.TupleID) {
	r := idx.db.Relation(rel)
	if r == nil {
		return
	}
	strCols := stringColumns(r)
	postings := idx.postings[rel]
	if postings == nil {
		postings = make(map[string][]relational.TupleID)
		idx.postings[rel] = postings
	}
	applyToPostings(postings,
		collectTokens(r, strCols, deleted),
		collectTokens(r, strCols, inserted))
}

// Apply is Index.Apply for the sharded index, under the same contract (the
// engine holds its write lock across mutations): the batch's token deltas
// are partitioned by the same FNV hash that placed them at build time,
// then every touched shard folds its slice of the delta — a handful of
// tokens, far too few to be worth a goroutine per shard.
func (idx *Sharded) Apply(rel string, inserted, deleted []relational.TupleID) {
	if !idx.known[rel] {
		return
	}
	r := idx.db.Relation(rel)
	strCols := stringColumns(r)
	rem := partitionByShard(collectTokens(r, strCols, deleted), idx.numShards)
	add := partitionByShard(collectTokens(r, strCols, inserted), idx.numShards)
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

// partitionByShard splits one token map into per-shard token maps under
// shardOf, the index's placement function.
func partitionByShard(tokens map[string][]relational.TupleID, numShards int) []map[string][]relational.TupleID {
	out := make([]map[string][]relational.TupleID, numShards)
	for tok, ids := range tokens {
		s := shardOf(tok, numShards)
		if out[s] == nil {
			out[s] = make(map[string][]relational.TupleID)
		}
		out[s][tok] = ids
	}
	return out
}

package keyword

// Physical compaction support: when the storage layer reclaims tombstoned
// slots, every TupleID of the compacted relation shifts down. Posting lists
// hold live tuples only (deletes retract their postings immediately), so
// the index never needs re-tokenizing — remapping the stored ids is enough,
// and because the remap is monotonic over live ids the lists stay ascending
// and deduplicated, exactly what a rebuild over the compacted database
// would produce.

import "sizelos/internal/relational"

// remapPostings rewrites every posting list of one relation's token map in
// place under the monotonic remap.
func remapPostings(postings map[string][]relational.TupleID, remap []relational.TupleID) {
	for _, list := range postings {
		for i, id := range list {
			list[i] = remap[id]
		}
	}
}

// Remap rewrites one relation's posting ids after the storage layer
// physically compacted it. remap[old] is the new TupleID of each slot, -1
// for reclaimed tombstones; no live posting may map to -1. Like Apply,
// Remap must be serialized against lookups by the caller.
func (idx *Index) Remap(rel string, remap []relational.TupleID) {
	if postings := idx.postings[rel]; postings != nil {
		remapPostings(postings, remap)
	}
}

// Remap is Index.Remap for the sharded index: shards partition by token,
// so every shard's slice of the relation remaps independently.
func (idx *Sharded) Remap(rel string, remap []relational.TupleID) {
	for _, shard := range idx.shards {
		if postings := shard[rel]; postings != nil {
			remapPostings(postings, remap)
		}
	}
}

package keyword

// Physical compaction support: when the storage layer reclaims tombstoned
// slots, every TupleID of the compacted relation shifts down. Posting lists
// hold live tuples only (deletes retract their postings immediately), so
// the index never needs re-tokenizing — remapping the stored ids is enough,
// and because the remap is monotonic over live ids the lists stay ascending
// and deduplicated, exactly what a rebuild over the compacted database
// would produce.

import "sizelos/internal/relational"

// Remap rewrites one relation's posting ids in place after the storage
// layer physically compacted it. remap[old] is the new TupleID of each
// slot, -1 for reclaimed tombstones; no live posting may map to -1. Shards
// partition by token, so each shard's slice of the relation remaps on its
// own. Like Apply, Remap must be serialized against lookups by the caller.
func (idx *Sharded) Remap(rel string, remap []relational.TupleID) {
	for _, shard := range idx.shards {
		for _, list := range shard[rel] {
			for i, id := range list {
				list[i] = remap[id]
			}
		}
	}
}

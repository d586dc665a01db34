package keyword

import (
	"runtime"

	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
)

// Sharded is the inverted index: its tokens are hash-partitioned across
// independent posting maps. Construction tokenizes the column stream in
// parallel chunks and lets one goroutine per shard own its map; each lookup
// probes only the shard its keyword hashes to. Results do not depend on the
// shard count: postings per (relation, token) are the same ascending
// deduplicated lists, only their physical placement differs.
type Sharded struct {
	db *relational.DB
	// shards[s][rel][token] holds the postings of every token hashing to
	// shard s. Concurrent lookups need no locking; the only writers after
	// BuildSharded are Apply and Remap, which callers must serialize against
	// lookups (the engine holds its write lock across mutations).
	shards []map[string]map[string][]relational.TupleID
}

// ShardedOptions tunes BuildSharded. The zero value picks one shard per
// CPU; the tokenizer pool is GOMAXPROCS wide either way.
type ShardedOptions struct {
	// NumShards is the number of token partitions (<= 0: one per CPU).
	// Shard count affects layout and build parallelism only, never results.
	NumShards int
}

// defaultNumShards is one shard per available CPU, the build sweet spot.
func defaultNumShards() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// shardOf routes a token to its shard by FNV-1a hash. Inlined rather than
// hash/fnv to keep the per-token hot path allocation-free.
func shardOf(token string, numShards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(token); i++ {
		h ^= uint32(token[i])
		h *= 16777619
	}
	return int(h % uint32(numShards))
}

// chunkTuples is the tuple-count granule of the parallel tokenizer. Small
// enough that even one large relation fans out across every worker, large
// enough that per-chunk map overhead stays negligible.
const chunkTuples = 1024

// buildChunk is one contiguous tuple range of one relation in the
// tokenized column stream.
type buildChunk struct {
	rel     *relational.Relation
	strCols []int
	lo, hi  int
}

// BuildSharded indexes every string attribute of every relation into a
// token-partitioned index. The column stream is tokenized by a worker pool
// in relation-ordered chunks (phase 1), then one goroutine per shard
// concatenates its chunk-local postings in stream order (phase 2), so every
// posting list comes out ascending and deduplicated.
func BuildSharded(db *relational.DB, opts ShardedOptions) *Sharded {
	numShards := opts.NumShards
	if numShards <= 0 {
		numShards = defaultNumShards()
	}
	idx := &Sharded{db: db, shards: make([]map[string]map[string][]relational.TupleID, numShards)}
	var chunks []buildChunk
	for _, rel := range db.Relations {
		strCols := stringColumns(rel)
		for lo := 0; lo < rel.Len(); lo += chunkTuples {
			hi := lo + chunkTuples
			if hi > rel.Len() {
				hi = rel.Len()
			}
			chunks = append(chunks, buildChunk{rel: rel, strCols: strCols, lo: lo, hi: hi})
		}
	}

	// Phase 1: tokenize chunks in parallel; each worker routes its tokens
	// into chunk-local per-shard maps, deduplicating within the chunk.
	local := make([][]map[string][]relational.TupleID, len(chunks))
	searchexec.ForEach(len(chunks), 0, func(i int) {
		local[i] = tokenizeChunk(chunks[i], numShards)
	})

	// Phase 2: one goroutine per shard replays the stream in chunk order.
	// Chunk tuple ranges are disjoint and ascending per relation, so plain
	// concatenation keeps every posting list ascending and deduplicated.
	searchexec.ForEach(numShards, numShards, func(s int) {
		shard := make(map[string]map[string][]relational.TupleID)
		for i, ch := range chunks {
			m := local[i][s]
			if len(m) == 0 {
				continue
			}
			relMap := shard[ch.rel.Name]
			if relMap == nil {
				relMap = make(map[string][]relational.TupleID, len(m))
				shard[ch.rel.Name] = relMap
			}
			for tok, ids := range m {
				relMap[tok] = append(relMap[tok], ids...)
			}
		}
		idx.shards[s] = shard
	})
	return idx
}

// tokenizeChunk posts the live tuples of [lo, hi) of one relation, in
// ascending order, into fresh per-shard token -> postings maps for that
// range; tombstoned slots contribute nothing.
func tokenizeChunk(ch buildChunk, numShards int) []map[string][]relational.TupleID {
	out := make([]map[string][]relational.TupleID, numShards)
	for ti := ch.lo; ti < ch.hi; ti++ {
		if !ch.rel.Deleted(relational.TupleID(ti)) {
			tokenizeTuple(out, ch.rel, ch.strCols, relational.TupleID(ti))
		}
	}
	return out
}

// Lookup returns the ascending tuples of one relation containing every
// keyword (logical AND over tokens), or nil when none does: a drain of the
// same galloping intersection SearchStream ranks.
func (idx *Sharded) Lookup(rel string, keywords []string) []relational.TupleID {
	lists, ok := idx.keywordLists(rel, keywords)
	if !ok {
		return nil
	}
	var out []relational.TupleID
	it := newIntersection(lists)
	for id, ok := it.next(); ok; id, ok = it.next() {
		out = append(out, id)
	}
	return out
}

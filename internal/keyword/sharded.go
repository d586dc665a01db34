package keyword

import (
	"runtime"
	"strings"

	"sizelos/internal/relational"
	"sizelos/internal/searchexec"
)

// Sharded is an inverted index whose tokens are hash-partitioned across
// NumShards independent posting maps. Construction tokenizes the column
// stream in parallel chunks and lets one goroutine per shard own its map;
// each lookup probes only the shard its keyword hashes to. Results are
// bit-identical to the flat Index at any shard count: postings per
// (relation, token) are the same ascending deduplicated lists, only their
// physical placement differs.
type Sharded struct {
	db        *relational.DB
	numShards int
	// shards[s][rel][token] holds the postings of every token hashing to
	// shard s. Concurrent lookups need no locking; the only writer after
	// BuildSharded is Apply, which callers must serialize against lookups
	// (the engine holds its write lock across mutations).
	shards []map[string]map[string][]relational.TupleID
	// known marks relation names present in db, mirroring the flat index's
	// "unknown relation -> nil" behavior without probing every shard.
	known map[string]bool
}

// ShardedOptions tunes BuildSharded. The zero value picks one shard per
// CPU; the tokenizer pool is GOMAXPROCS wide either way.
type ShardedOptions struct {
	// NumShards is the number of token partitions (<= 0: DefaultNumShards).
	// Shard count affects layout and build/query parallelism only, never
	// results.
	NumShards int
}

// DefaultNumShards is one shard per available CPU, the build and fan-out
// sweet spot.
func DefaultNumShards() int {
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
// posting list comes out ascending and deduplicated exactly like
// BuildIndex's.
func BuildSharded(db *relational.DB, opts ShardedOptions) *Sharded {
	numShards := opts.NumShards
	if numShards <= 0 {
		numShards = DefaultNumShards()
	}
	idx := &Sharded{
		db:        db,
		numShards: numShards,
		shards:    make([]map[string]map[string][]relational.TupleID, numShards),
		known:     make(map[string]bool, len(db.Relations)),
	}
	var chunks []buildChunk
	for _, rel := range db.Relations {
		idx.known[rel.Name] = true
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
	// concatenation preserves the flat index's posting order and dedup.
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

// tokenizeChunk scans the live tuples of [lo, hi) of one relation
// tuple-major and returns per-shard token -> postings maps for that range;
// tombstoned slots contribute nothing.
func tokenizeChunk(ch buildChunk, numShards int) []map[string][]relational.TupleID {
	out := make([]map[string][]relational.TupleID, numShards)
	for ti := ch.lo; ti < ch.hi; ti++ {
		if ch.rel.Deleted(relational.TupleID(ti)) {
			continue
		}
		tup := ch.rel.Tuples[ti]
		for _, ci := range ch.strCols {
			for _, tok := range Tokenize(tup[ci].Str) {
				s := shardOf(tok, numShards)
				if out[s] == nil {
					out[s] = make(map[string][]relational.TupleID)
				}
				postToken(out[s], tok, relational.TupleID(ti))
			}
		}
	}
	return out
}

// NumShards reports the index's partition count.
func (idx *Sharded) NumShards() int { return idx.numShards }

// postings returns one token's posting list in one relation, probing only
// the shard the token hashes to.
func (idx *Sharded) postings(rel, token string) []relational.TupleID {
	relMap := idx.shards[shardOf(token, idx.numShards)][rel]
	if relMap == nil {
		return nil
	}
	return relMap[token]
}

// Lookup returns the tuples of one relation containing every keyword
// (logical AND over tokens). Each keyword's posting list is fetched from
// the one shard it hashes to (a pair of map probes — far too cheap to be
// worth a goroutine per keyword), then intersected in keyword order
// exactly like the flat index.
func (idx *Sharded) Lookup(rel string, keywords []string) []relational.TupleID {
	if !idx.known[rel] || len(keywords) == 0 {
		return nil
	}
	var acc []relational.TupleID
	for i, kw := range keywords {
		list := idx.postings(rel, strings.ToLower(kw))
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

// Search ranks one relation's candidates best-first, identical to
// (*Index).Search. Like the flat layout it drains SearchStream, so the
// materialized and streaming surfaces share one code path.
func (idx *Sharded) Search(dsRel string, query string, scores relational.DBScores) []Match {
	return drainStream(idx.SearchStream(dsRel, query, scores))
}

package keyword

import (
	"strings"

	"sizelos/internal/relational"
)

// This file is the query side of the index: instead of materializing and
// sorting the full match set, a MatchStream produces each next-best match
// on demand. The composition is
//
//	posting lists -> lazy k-way intersection -> best-first frontier -> pop
//
// The intersection never materializes intermediate per-keyword results;
// candidates flow one id at a time into a binary-heap frontier built in
// O(n), and each pop costs O(log n). A caller consuming k of n matches
// therefore pays O(n + k log n) instead of the O(n log n) full sort — and,
// one layer up, the engine computes summaries only for the k matches
// actually pulled.

// MatchStream is a pull cursor over keyword matches in best-first order
// (score desc, relation asc, tuple asc). Next yields the next-best match
// until exhausted. Streams are
// single-consumer and must not be advanced concurrently with index
// mutation; the engine pins one consistent state via its read lock and
// epoch checks.
type MatchStream interface {
	// Next pops the next-best match; ok is false when the stream is dry.
	Next() (m Match, ok bool)
	// Remaining reports how many matches the stream still holds.
	Remaining() int
}

// intersection walks k ascending posting lists in lockstep and emits the
// ids common to all of them, ascending, one at a time. Lists are probed by
// galloping (exponential then binary search), so skewed keyword
// selectivities cost O(short · log long) rather than a full linear merge.
type intersection struct {
	lists [][]relational.TupleID
	pos   []int
}

func newIntersection(lists [][]relational.TupleID) *intersection {
	return &intersection{lists: lists, pos: make([]int, len(lists))}
}

// next returns the next common id, ascending; ok=false when any list is
// exhausted (no further common id can exist).
func (it *intersection) next() (relational.TupleID, bool) {
	if len(it.lists) == 0 {
		return 0, false
	}
	if it.pos[0] >= len(it.lists[0]) {
		return 0, false
	}
	cand := it.lists[0][it.pos[0]]
	for i := 1; i < len(it.lists); {
		p := gallop(it.lists[i], it.pos[i], cand)
		it.pos[i] = p
		if p >= len(it.lists[i]) {
			return 0, false
		}
		if v := it.lists[i][p]; v != cand {
			// Restart the round with the larger candidate; list 0 must
			// catch up too.
			cand = v
			it.pos[0] = gallop(it.lists[0], it.pos[0], cand)
			if it.pos[0] >= len(it.lists[0]) {
				return 0, false
			}
			if it.lists[0][it.pos[0]] != cand {
				cand = it.lists[0][it.pos[0]]
			}
			i = 1
			continue
		}
		i++
	}
	// Every list agrees on cand; advance past it for the next call.
	it.pos[0]++
	return cand, true
}

// gallop returns the smallest index >= from whose value is >= target,
// probing exponentially and finishing with a binary search over the
// bracketed range.
func gallop(list []relational.TupleID, from int, target relational.TupleID) int {
	if from >= len(list) || list[from] >= target {
		return from
	}
	step := 1
	lo := from
	hi := from + step
	for hi < len(list) && list[hi] < target {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > len(list) {
		hi = len(list)
	}
	// Binary search (lo, hi]: list[lo] < target <= list[hi] (if in range).
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// frontierStream is the per-relation best-first frontier: the candidate
// (tuple, score) pairs arranged as a binary heap ordered by matchLess.
// Building it is O(n); each Next pops the root in O(log n).
type frontierStream struct {
	heap []Match
}

var _ MatchStream = (*frontierStream)(nil)

// newFrontier streams the lazy intersection of lists into a heap of
// matches for one relation. Scores beyond the vector's length read as 0.
func newFrontier(dsRel string, lists [][]relational.TupleID, s relational.Scaled) *frontierStream {
	f := &frontierStream{}
	it := newIntersection(lists)
	for {
		id, ok := it.next()
		if !ok {
			break
		}
		m := Match{Relation: dsRel, Tuple: id}
		if int(id) < len(s.Raw) {
			m.Score = s.At(id)
		}
		f.heap = append(f.heap, m)
	}
	// Heapify bottom-up: O(n).
	for i := len(f.heap)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
	return f
}

func (f *frontierStream) Remaining() int { return len(f.heap) }

func (f *frontierStream) Next() (Match, bool) {
	n := len(f.heap)
	if n == 0 {
		return Match{}, false
	}
	top := f.heap[0]
	f.heap[0] = f.heap[n-1]
	f.heap = f.heap[:n-1]
	if len(f.heap) > 0 {
		f.siftDown(0)
	}
	return top, true
}

func (f *frontierStream) siftDown(i int) {
	h := f.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		best := l
		if r := l + 1; r < n && matchLess(h[r], h[l]) {
			best = r
		}
		if !matchLess(h[best], h[i]) {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// emptyStream is the stream of an unknown relation or unmatched keyword.
type emptyStream struct{}

var _ MatchStream = emptyStream{}

func (emptyStream) Next() (Match, bool) { return Match{}, false }
func (emptyStream) Remaining() int      { return 0 }

// keywordLists resolves one relation's posting list per keyword, each from
// the one shard it hashes to; ok=false when the query is empty or any
// keyword has no postings in rel (AND semantics: the result is empty),
// which covers an unknown relation.
func (idx *Sharded) keywordLists(rel string, keywords []string) ([][]relational.TupleID, bool) {
	if len(keywords) == 0 {
		return nil, false
	}
	lists := make([][]relational.TupleID, len(keywords))
	for i, kw := range keywords {
		tok := strings.ToLower(kw)
		list := idx.shards[shardOf(tok, len(idx.shards))][rel][tok]
		if len(list) == 0 {
			return nil, false
		}
		lists[i] = list
	}
	return lists, true
}

// SearchStream returns a pull cursor over one DS relation's matches for a
// keyword query — exactly Lookup's tuples — in best-first order, produced
// on demand: O(n) frontier build, O(log n) per pop.
func (idx *Sharded) SearchStream(dsRel, query string, scores relational.DBScores) MatchStream {
	return idx.SearchScaled(dsRel, query, relational.Scaled{Raw: scores[dsRel], F: 1})
}

// SearchScaled is SearchStream over dsRel's scores served at a scale: a
// match scores s.At(tuple), so a setting's raw vector ranks without a
// rescaled copy.
func (idx *Sharded) SearchScaled(dsRel, query string, s relational.Scaled) MatchStream {
	lists, ok := idx.keywordLists(dsRel, Tokenize(query))
	if !ok {
		return emptyStream{}
	}
	return newFrontier(dsRel, lists, s)
}

package ostree

import (
	"cmp"
	"slices"
	"sync"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
)

// Ordered is the index on local importance that Algorithm 4's TOP-l join
// assumes, for one ranking setting: per non-Forward hop a TOP-l extraction
// crossed, every parent tuple's children in non-increasing raw score, ties
// by ascending id, with multiplicity. It holds ids, never scores: a
// re-rank rescales every score, and a positive factor keeps the order.
// Extractions build a hop's family on first use, ordered by mu; the engine
// repairs (Apply, Rescored) and drops (Reset) families under its write
// lock, so a built family is always current.
type Ordered struct {
	mu   sync.Mutex
	fams map[datagraph.Hop]*family
}

// family is one hop's lists: parent p's is ids[spans[p].lo:spans[p].hi].
// A re-derived list is appended to ids; once half of ids is dead the live
// lists are copied into a fresh store.
type family struct {
	h     datagraph.Hop
	spans []span
	ids   []relational.TupleID
	dead  int
}

type span struct{ lo, hi int32 }

func (f *family) list(p relational.TupleID) []relational.TupleID {
	s := f.spans[p]
	return f.ids[s.lo:s.hi:s.hi]
}

// family returns h's family, built from g and the raw scores of h's To
// relation on first use.
func (o *Ordered) family(g *datagraph.Graph, h datagraph.Hop, raw relational.Scores) *family {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.fams[h] == nil {
		f := &family{h: h, spans: make([]span, g.RelSize(h.From()))}
		for p := range f.spans {
			f.relist(g, relational.TupleID(p), raw)
		}
		f.ids = slices.Clone(f.ids) // the family stays live: no spare capacity
		if o.fams == nil {
			o.fams = make(map[datagraph.Hop]*family)
		}
		o.fams[h] = f
	}
	return o.fams[h]
}

// relist re-derives p's list from the graph, sorted by descending raw
// score, ties by ascending id.
func (f *family) relist(g *datagraph.Graph, p relational.TupleID, raw relational.Scores) {
	var buf []relational.TupleID
	s := f.spans[p]
	f.dead += int(s.hi - s.lo)
	lo := int32(len(f.ids))
	f.ids = append(f.ids, g.Cross(f.h, p, &buf)...)
	f.spans[p] = span{lo, int32(len(f.ids))}
	byScore(f.list(p), raw)
}

func byScore(ids []relational.TupleID, raw relational.Scores) {
	slices.SortFunc(ids, func(a, b relational.TupleID) int { return cmp.Or(cmp.Compare(raw[b], raw[a]), cmp.Compare(a, b)) })
}

// topL is the TOP-l extraction as a prefix walk of parent's list: the
// children scoring over minScore at scale sc, by descending score, ties by
// ascending id, cut to limit; nil when none is or limit <= 0. A list in raw
// order is in served order except inside runs of equal served score, so at
// the cut the walk also reads the rest of the run, and a prefix holding a
// tie is copied into *buf and sorted. Otherwise the result aliases the
// list.
func (f *family) topL(parent relational.TupleID, sc relational.Scaled, minScore float64, limit int, buf *[]relational.TupleID) []relational.TupleID {
	if limit <= 0 {
		return nil
	}
	list := f.list(parent)
	n, tie, prev := 0, false, 0.0
	for ; n < len(list); n++ {
		v := sc.At(list[n])
		if v <= minScore || n >= limit && v != prev {
			break
		}
		tie = tie || n > 0 && v == prev
		prev = v
	}
	switch {
	case n == 0:
		return nil
	case !tie:
		return list[:n:n]
	}
	*buf = append((*buf)[:0], list[:n]...)
	return sortTopL(*buf, sc, limit)
}

// Apply repairs every built family after the committed batch res, already
// applied to g, with raw (by relation name) grown over its new slots, where
// a new tuple scores 0: the parents res deleted lose their lists, and those
// Hop.ChangedFrom names have theirs re-derived.
func (o *Ordered) Apply(g *datagraph.Graph, raw relational.DBScores, res relational.BatchResult) {
	o.mu.Lock()
	defer o.mu.Unlock()
	db := g.DB
	for h, f := range o.fams {
		f.spans = append(f.spans, make([]span, g.RelSize(h.From())-len(f.spans))...)
		for _, p := range res.Deleted[db.Relations[h.From()].Name] {
			f.dead += int(f.spans[p].hi - f.spans[p].lo)
			f.spans[p] = span{}
		}
		sc := raw[db.Relations[h.To()].Name]
		h.ChangedFrom(db, res, func(p relational.TupleID) { f.relist(g, p, sc) })
		if 2*f.dead > len(f.ids) {
			ids := make([]relational.TupleID, 0, len(f.ids)-f.dead)
			for p, s := range f.spans {
				f.spans[p] = span{int32(len(ids)), int32(len(ids)) + s.hi - s.lo}
				ids = append(ids, f.ids[s.lo:s.hi]...)
			}
			f.ids, f.dead = ids, 0
		}
	}
}

// Rescored repairs every built family after a re-rank that, beyond one
// uniform rescale, changed the raw scores of the tuples moved lists by
// relation ordinal (rank.Stats.Moved). Only a moved child can break a list,
// and only against a neighbour, so the lists holding one are scanned for
// it, reading ids, and sorted again where it is out of order.
func (o *Ordered) Rescored(g *datagraph.Graph, raw relational.DBScores, moved [][]relational.TupleID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var parents, buf []relational.TupleID
	for h, f := range o.fams {
		isMoved, seen, sc := make([]bool, g.RelSize(h.To())), make([]bool, len(f.spans)), raw[g.DB.Relations[h.To()].Name]
		parents = parents[:0]
		for _, v := range moved[h.To()] {
			isMoved[v] = true
			for _, p := range g.Cross(h.Reverse(), v, &buf) {
				if !seen[p] {
					seen[p] = true
					parents = append(parents, p)
				}
			}
		}
		for _, p := range parents {
			list := f.list(p)
			for i, x := range list {
				if isMoved[x] && (i > 0 && sc[list[i-1]] < sc[x] || i+1 < len(list) && sc[x] < sc[list[i+1]]) {
					byScore(list, sc)
					break
				}
			}
		}
	}
}

// Reset drops every family, to be rebuilt on its next use: what the engine
// does where every list may have moved (a full iteration's new scores, a
// compaction's remapped TupleIDs, a new G_DS).
func (o *Ordered) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	clear(o.fams)
}

// Families calls fn with every built family's hop and lists, by parent
// tuple, read-only: what a check compares against the graph.
func (o *Ordered) Families(fn func(h datagraph.Hop, lists [][]relational.TupleID)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for h, f := range o.fams {
		lists := make([][]relational.TupleID, len(f.spans))
		for p := range lists {
			lists[p] = f.list(relational.TupleID(p))
		}
		fn(h, lists)
	}
}

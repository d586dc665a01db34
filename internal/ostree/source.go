package ostree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"sizelos/internal/datagraph"
	"sizelos/internal/relational"
	"sizelos/internal/schemagraph"
)

// Source extracts the child tuples of an OS node under a G_DS node's
// traversal step. Two implementations exist: GraphSource walks the
// in-memory data graph and is what the engine extracts with; DBSource runs
// joins against the relational engine ("directly from the database") — the
// other OS generation path of Figure 10f, and the reference GraphSource is
// proven equal to (TestDBSourceMatchesGraphSource). Junction tuples are
// hopped over and never returned.
//
// An extraction's result is read-only and may alias the source: it stays
// valid until the next Children or ChildrenTopL call on the same source, so
// a caller that keeps it longer copies it. A source is used by one goroutine
// at a time.
type Source interface {
	// Children returns all child tuples of parent under gn, in extraction
	// order.
	Children(gn *schemagraph.Node, parent relational.TupleID) []relational.TupleID
	// ChildrenTopL returns up to limit child tuples whose *global* score is
	// strictly greater than minScore, in descending score order (ties by
	// ascending id), nil when none is: the Avoidance Condition 2 extraction
	// of Algorithm 4 (line 10). Callers convert local-importance thresholds
	// by dividing by the node's affinity.
	ChildrenTopL(gn *schemagraph.Node, parent relational.TupleID, minScore float64, limit int) []relational.TupleID
	// DB returns the underlying database (for schema and rendering).
	DB() *relational.DB
	// Scores returns the active global-importance setting.
	Scores() relational.DBScores
	// Accesses returns the number of extraction operations performed.
	Accesses() int64
	// ResetAccesses zeroes the counter and returns its prior value.
	ResetAccesses() int64
}

// relScores resolves the scores array of a relation, panicking on a
// missing relation — a configuration error, not a runtime condition.
func relScores(scores relational.DBScores, rel string) relational.Scores {
	s, ok := scores[rel]
	if !ok {
		panic(fmt.Sprintf("ostree: no scores for relation %s", rel))
	}
	return s
}

// DBSource extracts children with joins against the relational engine.
// TOP-l extractions use importance-ordered FK indexes, built lazily per
// (G_DS node); this models a database index on the local-importance
// attribute li that the paper's SQL assumes.
type DBSource struct {
	db     *relational.DB
	scores relational.DBScores

	ordered map[*schemagraph.Node]*relational.OrderedFKIndex
	// junction caches, per junction-step G_DS node: children of each parent
	// key sorted by descending child score.
	junction map[*schemagraph.Node]map[int64][]relational.TupleID
}

// NewDBSource creates a database-backed extraction source for one ranking
// setting.
func NewDBSource(db *relational.DB, scores relational.DBScores) *DBSource {
	return &DBSource{
		db:       db,
		scores:   scores,
		ordered:  make(map[*schemagraph.Node]*relational.OrderedFKIndex),
		junction: make(map[*schemagraph.Node]map[int64][]relational.TupleID),
	}
}

// DB implements Source.
func (s *DBSource) DB() *relational.DB { return s.db }

// Scores implements Source.
func (s *DBSource) Scores() relational.DBScores { return s.scores }

// Accesses implements Source.
func (s *DBSource) Accesses() int64 { return s.db.Accesses() }

// ResetAccesses implements Source.
func (s *DBSource) ResetAccesses() int64 { return s.db.ResetAccesses() }

// Children implements Source.
func (s *DBSource) Children(gn *schemagraph.Node, parent relational.TupleID) []relational.TupleID {
	db := s.db
	parentRel := db.Relation(gn.Parent.Rel)
	switch gn.Step.Kind {
	case schemagraph.StepChildFK:
		child := db.Relation(gn.Rel)
		return db.JoinChildren(child, gn.Step.FKOrd, parentRel.PK(parent))
	case schemagraph.StepParentFK:
		child := db.Relation(gn.Rel)
		fkCol := parentRel.ColIndex(parentRel.FKs[gn.Step.FKOrd].Column)
		key := parentRel.Tuples[parent][fkCol].Int
		if id, ok := db.LookupParent(child, key); ok {
			return []relational.TupleID{id}
		}
		return nil
	case schemagraph.StepJunction:
		j := db.Relation(gn.Step.Junction)
		child := db.Relation(gn.Rel)
		rows := db.JoinChildren(j, gn.Step.JFKParent, parentRel.PK(parent))
		if len(rows) == 0 {
			return nil
		}
		db.ChargeAccess() // resolving the far side is the second join of the hop
		farCol := j.ColIndex(j.FKs[gn.Step.JFKChild].Column)
		out := make([]relational.TupleID, 0, len(rows))
		for _, row := range rows {
			if id, ok := child.LookupPK(j.Tuples[row][farCol].Int); ok {
				out = append(out, id)
			}
		}
		return out
	default:
		return nil
	}
}

// ChildrenTopL implements Source.
func (s *DBSource) ChildrenTopL(gn *schemagraph.Node, parent relational.TupleID, minScore float64, limit int) []relational.TupleID {
	db := s.db
	parentRel := db.Relation(gn.Parent.Rel)
	switch gn.Step.Kind {
	case schemagraph.StepChildFK:
		idx, ok := s.ordered[gn]
		if !ok {
			child := db.Relation(gn.Rel)
			idx = relational.BuildOrderedFKIndex(child, gn.Step.FKOrd, relScores(s.scores, gn.Rel))
			s.ordered[gn] = idx
		}
		return idx.TopL(db, parentRel.PK(parent), minScore, limit)
	case schemagraph.StepParentFK:
		scores := relScores(s.scores, gn.Rel)
		return sortTopL(keepOver(nil, s.Children(gn, parent), scores, minScore), scores, limit)
	case schemagraph.StepJunction:
		lists, ok := s.junction[gn]
		if !ok {
			lists = buildJunctionLists(db, gn, relScores(s.scores, gn.Rel))
			s.junction[gn] = lists
		}
		db.ChargeAccess() // the TOP-l join is charged even when empty (§5.3)
		return topLFromSorted(lists[parentRel.PK(parent)], relScores(s.scores, gn.Rel), minScore, limit)
	default:
		return nil
	}
}

// buildJunctionLists materializes, for one junction-step G_DS node, the
// children of every parent key sorted by descending child score — the
// equivalent of an ORDER BY li index over the junction join.
func buildJunctionLists(db *relational.DB, gn *schemagraph.Node, childScores relational.Scores) map[int64][]relational.TupleID {
	j := db.Relation(gn.Step.Junction)
	child := db.Relation(gn.Rel)
	parentCol := j.ColIndex(j.FKs[gn.Step.JFKParent].Column)
	childCol := j.ColIndex(j.FKs[gn.Step.JFKChild].Column)
	lists := make(map[int64][]relational.TupleID)
	for ri, row := range j.Tuples {
		if j.Deleted(relational.TupleID(ri)) {
			continue // a retracted junction row no longer connects anything
		}
		pk := row[parentCol].Int
		if cid, ok := child.LookupPK(row[childCol].Int); ok {
			lists[pk] = append(lists[pk], cid)
		}
	}
	for pk, ids := range lists {
		sort.Slice(ids, func(a, b int) bool {
			sa, sb := childScores[ids[a]], childScores[ids[b]]
			if sa != sb {
				return sa > sb
			}
			return ids[a] < ids[b]
		})
		lists[pk] = ids
	}
	return lists
}

func topLFromSorted(sorted []relational.TupleID, scores relational.Scores, minScore float64, limit int) []relational.TupleID {
	var out []relational.TupleID
	for _, id := range sorted {
		if len(out) >= limit {
			break
		}
		if scores[id] <= minScore {
			break
		}
		out = append(out, id)
	}
	return out
}

// keepOver appends to dst the ids scoring over minScore, in order.
func keepOver(dst, ids []relational.TupleID, scores relational.Scores, minScore float64) []relational.TupleID {
	for _, id := range ids {
		if scores[id] > minScore {
			dst = append(dst, id)
		}
	}
	return dst
}

// sortTopL orders ids, which all passed the threshold, by descending score,
// ties by ascending id, and cuts them to limit: nil when none are left.
func sortTopL(ids []relational.TupleID, scores relational.Scores, limit int) []relational.TupleID {
	if len(ids) == 0 || limit <= 0 {
		return nil
	}
	slices.SortFunc(ids, func(a, b relational.TupleID) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids[:min(limit, len(ids))]
}

// GraphSource extracts children by walking the in-memory data graph, the
// fast OS-generation path of Figure 10f ("the OSs are generated much faster
// using the data graph").
type GraphSource struct {
	g        *datagraph.Graph
	scores   relational.DBScores
	accesses int64
	// hop and top are the scratch a junction step's children and a TOP-l
	// extraction's survivors are written into (Source's aliasing contract).
	hop, top []relational.TupleID
}

// NewGraphSource creates a data-graph-backed extraction source.
func NewGraphSource(g *datagraph.Graph, scores relational.DBScores) *GraphSource {
	return &GraphSource{g: g, scores: scores}
}

// DB implements Source.
func (s *GraphSource) DB() *relational.DB { return s.g.DB }

// Scores implements Source.
func (s *GraphSource) Scores() relational.DBScores { return s.scores }

// Accesses implements Source.
func (s *GraphSource) Accesses() int64 { return s.accesses }

// ResetAccesses implements Source.
func (s *GraphSource) ResetAccesses() int64 {
	n := s.accesses
	s.accesses = 0
	return n
}

// Children implements Source.
func (s *GraphSource) Children(gn *schemagraph.Node, parent relational.TupleID) []relational.TupleID {
	s.accesses++
	return s.step(gn, parent, false, &s.hop)
}

// Parents is the inverse of Children: the tuples p of gn's parent node with
// child among Children(gn, p). Not an extraction: no access is counted. The
// result is the caller's — Subjects recurses while it iterates one.
func (s *GraphSource) Parents(gn *schemagraph.Node, child relational.TupleID) []relational.TupleID {
	var own []relational.TupleID
	return s.step(gn, child, true, &own)
}

// step crosses gn's traversal step from t: down from a tuple of gn's parent
// node to its children, or up from a tuple of gn to its parents — the same
// edge types read the other way, so the two are inverse by construction. A
// junction hop writes its result over *buf; the other steps return the
// graph's adjacency list.
func (s *GraphSource) step(gn *schemagraph.Node, t relational.TupleID, up bool, buf *[]relational.TupleID) []relational.TupleID {
	db := s.g.DB
	from := db.RelIndex(gn.Parent.Rel)
	if up {
		from = db.RelIndex(gn.Rel)
	}
	switch gn.Step.Kind {
	case schemagraph.StepChildFK:
		et := datagraph.EdgeType{Rel: gn.Rel, FK: gn.Step.FKOrd}
		return s.g.NeighborsAlong(from, t, et, up)
	case schemagraph.StepParentFK:
		et := datagraph.EdgeType{Rel: gn.Parent.Rel, FK: gn.Step.FKOrd}
		return s.g.NeighborsAlong(from, t, et, !up)
	case schemagraph.StepJunction:
		jIdx := db.RelIndex(gn.Step.Junction)
		etIn := datagraph.EdgeType{Rel: gn.Step.Junction, FK: gn.Step.JFKParent}
		etOut := datagraph.EdgeType{Rel: gn.Step.Junction, FK: gn.Step.JFKChild}
		if up {
			etIn, etOut = etOut, etIn
		}
		rows := s.g.NeighborsAlong(from, t, etIn, false)
		if len(rows) == 0 {
			return nil
		}
		out := (*buf)[:0]
		for _, row := range rows {
			out = append(out, s.g.NeighborsAlong(jIdx, row, etOut, true)...)
		}
		*buf = out
		return out
	default:
		return nil
	}
}

// ChildrenTopL implements Source, copying and sorting only the children
// over minScore.
func (s *GraphSource) ChildrenTopL(gn *schemagraph.Node, parent relational.TupleID, minScore float64, limit int) []relational.TupleID {
	scores := relScores(s.scores, gn.Rel)
	s.top = keepOver(s.top[:0], s.Children(gn, parent), scores, minScore)
	return sortTopL(s.top, scores, limit)
}

// Subjects lists the root tuples of gds whose OS a committed batch can have
// changed: from every edge res added or removed it climbs Parents to the
// root, on the graph res is already applied to. An OS is the tuples a
// traversal reaches from its subject, so a subject the climb does not reach
// has the same OS as before (backtrack and depth cuts only shrink an OS: the
// set errs wide, never narrow). Past budget distinct (G_DS node, tuple)
// instances the climb stops and ok is false: the relation counts as reached.
func (s *GraphSource) Subjects(gds *schemagraph.GDS, res relational.BatchResult, budget int) (subjects []relational.TupleID, ok bool) {
	type instance struct {
		gn *schemagraph.Node
		t  relational.TupleID
	}
	seen := make(map[instance]bool)
	var climb func(gn *schemagraph.Node, t relational.TupleID)
	climb = func(gn *schemagraph.Node, t relational.TupleID) {
		if seen[instance{gn, t}] || len(seen) > budget {
			return
		}
		seen[instance{gn, t}] = true
		if gn.Parent == nil {
			subjects = append(subjects, t)
			return
		}
		for _, p := range s.Parents(gn, t) {
			climb(gn.Parent, p)
		}
	}
	db := s.g.DB
	for _, gn := range gds.Nodes()[1:] {
		// The climb starts at the parent-side end of each changed edge, the
		// tuple one FK of the edge's owner names: read from the owner's slot,
		// which a tombstone keeps (its adjacency is already cleared), and
		// skipped if itself deleted, since whatever reached it did so over
		// another removed edge, nearer the root, whose end is live.
		rel, fkOrd := gn.Rel, gn.Step.FKOrd
		switch gn.Step.Kind {
		case schemagraph.StepJunction:
			rel, fkOrd = gn.Step.Junction, gn.Step.JFKParent
		case schemagraph.StepParentFK:
			// Owned by the parent-side tuple: as new or as deleted as the edge.
			continue
		}
		r := db.Relation(rel)
		fk := r.FKs[fkOrd]
		col, ref := r.ColIndex(fk.Column), db.Relation(fk.Ref)
		for _, owners := range [][]relational.TupleID{res.Deleted[rel], res.Inserted[rel]} {
			for _, t := range owners {
				if end, live := ref.LookupPK(r.Tuples[t][col].Int); live {
					climb(gn.Parent, end)
				}
			}
		}
	}
	return subjects, len(seen) <= budget
}

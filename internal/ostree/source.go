package ostree

import (
	"cmp"
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
	// Scores returns the active setting's global-importance scores of
	// relation ordinal rel, resolved once when the source was made.
	Scores(rel int) relational.Scores
	// Accesses returns the number of extraction operations performed.
	Accesses() int64
	// ResetAccesses zeroes the counter and returns its prior value.
	ResetAccesses() int64
}

// byOrdinal appends to dst a setting's score vectors by relation ordinal,
// nil for a relation the setting does not score (reading one panics: a
// configuration error, not a runtime condition).
func byOrdinal(dst []relational.Scores, db *relational.DB, scores relational.DBScores) []relational.Scores {
	for _, r := range db.Relations {
		dst = append(dst, scores[r.Name])
	}
	return dst
}

// DBSource extracts children with joins against the relational engine.
// TOP-l extractions use importance-ordered FK indexes, built lazily per
// (G_DS node); this models a database index on the local-importance
// attribute li that the paper's SQL assumes. It reads each G_DS node's
// name-based Step, not its bound hop, so a DBSource agreeing with a
// GraphSource checks Bind against a second reading of the schema.
type DBSource struct {
	db     *relational.DB
	scores []relational.Scores // by relation ordinal

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
		scores:   byOrdinal(nil, db, scores),
		ordered:  make(map[*schemagraph.Node]*relational.OrderedFKIndex),
		junction: make(map[*schemagraph.Node]map[int64][]relational.TupleID),
	}
}

// DB implements Source.
func (s *DBSource) DB() *relational.DB { return s.db }

// Scores implements Source.
func (s *DBSource) Scores(rel int) relational.Scores { return s.scores[rel] }

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
			idx = relational.BuildOrderedFKIndex(child, gn.Step.FKOrd, s.scores[gn.RelOrd])
			s.ordered[gn] = idx
		}
		return idx.TopL(db, parentRel.PK(parent), minScore, limit)
	case schemagraph.StepParentFK:
		scores := s.scores[gn.RelOrd]
		return sortTopL(keepOver(nil, s.Children(gn, parent), scores, minScore), scores, limit)
	case schemagraph.StepJunction:
		lists, ok := s.junction[gn]
		if !ok {
			lists = buildJunctionLists(db, gn, s.scores[gn.RelOrd])
			s.junction[gn] = lists
		}
		db.ChargeAccess() // the TOP-l join is charged even when empty (§5.3)
		return topLFromSorted(lists[parentRel.PK(parent)], s.scores[gn.RelOrd], minScore, limit)
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
// using the data graph"). It crosses each G_DS node's bound hop (GDS.Bind,
// which Engine.RegisterGDS runs) and reads scores by the node's relation
// ordinal: no name is looked up per extraction.
type GraphSource struct {
	g        *datagraph.Graph
	scores   []relational.Scores // by relation ordinal
	accesses int64
	// hop and top are the scratch a junction step's children and a TOP-l
	// extraction's survivors are written into (Source's aliasing contract).
	hop, top []relational.TupleID
	// inline backs scores up to 8 relations (TPC-H's count), so a source
	// is one allocation: the engine makes one per page.
	inline [8]relational.Scores
}

// NewGraphSource creates a data-graph-backed extraction source.
func NewGraphSource(g *datagraph.Graph, scores relational.DBScores) *GraphSource {
	s := &GraphSource{g: g}
	s.scores = byOrdinal(s.inline[:0], g.DB, scores)
	return s
}

// DB implements Source.
func (s *GraphSource) DB() *relational.DB { return s.g.DB }

// Scores implements Source.
func (s *GraphSource) Scores(rel int) relational.Scores { return s.scores[rel] }

// Accesses implements Source.
func (s *GraphSource) Accesses() int64 { return s.accesses }

// ResetAccesses implements Source.
func (s *GraphSource) ResetAccesses() int64 {
	n := s.accesses
	s.accesses = 0
	return n
}

// Children implements Source: gn's hop, crossed from a tuple of its parent
// node.
func (s *GraphSource) Children(gn *schemagraph.Node, parent relational.TupleID) []relational.TupleID {
	s.accesses++
	return s.g.Cross(gn.Hop, parent, &s.hop)
}

// Parents is the inverse of Children: the tuples p of gn's parent node with
// child among Children(gn, p) — gn's hop reversed, the same foreign keys
// read the other way. Not an extraction: no access is counted. The result
// is the caller's — Subjects recurses while it iterates one.
func (s *GraphSource) Parents(gn *schemagraph.Node, child relational.TupleID) []relational.TupleID {
	var own []relational.TupleID
	return s.g.Cross(gn.Hop.Reverse(), child, &own)
}

// ChildrenTopL implements Source, copying and sorting only the children
// over minScore.
func (s *GraphSource) ChildrenTopL(gn *schemagraph.Node, parent relational.TupleID, minScore float64, limit int) []relational.TupleID {
	scores := s.scores[gn.RelOrd]
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
	for _, gn := range gds.Nodes()[1:] {
		// The climb starts at the parent-side end of each changed edge. An
		// end no longer live is skipped: whatever reached it did so over
		// another removed edge, nearer the root, whose end is live.
		gn.Hop.ChangedFrom(s.g.DB, res, func(end relational.TupleID) { climb(gn.Parent, end) })
	}
	return subjects, len(seen) <= budget
}

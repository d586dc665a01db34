package sizelos

// This file is the engine's write path. A MutationBatch flows through four
// layers under one write-lock acquisition: the relational store applies it
// atomically (tombstone deletes, appended inserts, per-relation version
// bumps), the keyword index folds the same delta in incrementally
// (keyword.Sharded.Apply), the data graph absorbs the same delta in place
// (datagraph.Graph.Apply — no rebuild), the per-relation epochs advance, and
// the summary cache forgets exactly the Data Subjects from which a G_DS path
// reaches a tuple the batch touched. A batch that asks for a re-rank then has
// every setting's scores repaired where they live — a residual push, or the
// warm full iteration — and every registered G_DS re-annotated from the new
// maxima. One amortized maintenance pass keeps the incremental structures
// from degrading under sustained churn: relations whose tombstones cross
// the compaction policy are physically compacted (TupleIDs remapped through
// every derived structure, the data graph rebuilt, the rank plans
// recompiled). The plans' row stores reclaim their own dead rows as they
// grow (rank.Plans.Apply), so they need no pass of their own.

import (
	"errors"
	"fmt"
	"sort"

	"sizelos/internal/datagraph"
	"sizelos/internal/ostree"
	"sizelos/internal/rank"
	"sizelos/internal/relational"
)

// ErrMutationInternal marks a Mutate or CompactNow failure that happened
// after the store committed: a data-graph rebuild, a re-rank, or the
// mutation log append. That call's batch is applied in memory — retrying it
// would double-apply — and after a rebuild or re-rank failure the derived
// state may be inconsistent. A failed log append is sticky: every later
// Mutate and CompactNow returns the same error, wrapping this one, and
// applies nothing. Test with errors.Is.
var ErrMutationInternal = errors.New("sizelos: mutation failed after store commit")

// TupleInsert adds one tuple (schema order, kinds matching the relation's
// columns) to Rel. It is the store's own insert operation, so a batch
// reaches the store and the WAL without conversion.
type TupleInsert = relational.InsertOp

// TupleDelete removes the tuple of Rel whose primary key is PK.
type TupleDelete = relational.DeleteOp

// MutationBatch is one atomic group of engine mutations. Deletes apply
// before inserts, each slice in order (see relational.Batch for the
// referential-integrity consequences).
type MutationBatch struct {
	Deletes []TupleDelete
	Inserts []TupleInsert
	// Rerank refreshes every ranking setting's global importance over the
	// mutated data graph — by localized residual push when the accumulated
	// deltas allow it, by warm-started full iteration otherwise — and
	// re-annotates the registered G_DSs, so the new tuples earn real global
	// importance. Without it the batch is cheap: new tuples score 0 until
	// the next re-ranked batch, and the cached summary of every subject that
	// cannot reach a touched tuple stays warm.
	// A re-rank rescales every score, so it advances every relation's epoch
	// and every subject's stamp — except a no-op rerank-only batch right after
	// a re-rank, whose scores (and cached summaries) are unchanged and reused.
	Rerank bool
}

// MutationResult reports what one successful Mutate did.
type MutationResult struct {
	// Inserted holds the TupleID assigned to each insert, parallel to
	// MutationBatch.Inserts. When the same call auto-compacted an insert's
	// relation, the id is the post-compaction position.
	Inserted []relational.TupleID
	// Versions snapshots the post-batch version of every touched relation.
	Versions map[string]uint64
	// Epochs snapshots the post-batch epoch of every relation whose epoch
	// the batch advanced.
	Epochs map[string]uint64
	// Footprint reports, per DS relation whose summaries the batch reached,
	// how many subjects it stamped — only their cached summaries stopped
	// being served — or -1 when it invalidated the whole relation (a re-rank
	// that changed scores, a compaction, a walk over footprintBudget).
	Footprint map[string]int
	// Reranked reports whether global importance was recomputed.
	Reranked bool
	// RerankStats, present when Reranked, reports each setting's
	// warm-started power iteration: how many iterations it took and how
	// many the warm start saved against the engine's cold-start baseline.
	RerankStats map[string]RerankStat
	// Compacted lists the relations this call physically compacted (their
	// TupleIDs were remapped; previously returned ids for them are stale).
	Compacted []string
}

// RerankStat describes one setting's re-rank during a mutation batch.
type RerankStat struct {
	// Iterations the full power iteration ran (0 for a completed residual
	// repair, which never sweeps the whole arena).
	Iterations int
	// IterationsSaved vs the cold-start count NewEngine measured for this
	// setting (floored at zero — a heavily mutated graph can genuinely need
	// more iterations than the original cold start).
	IterationsSaved int
	// WarmStart records whether a prior vector seeded the run.
	WarmStart bool
	// Residual records that this setting took the residual-push path
	// (possibly falling back; see FallbackTaken).
	Residual bool
	// Pushes counts the residual pushes performed (frontier nodes consumed
	// across all push rounds).
	Pushes int
	// NodesTouched counts the distinct nodes the residual repair updated
	// (the full iteration touches every node every iteration; see Updates).
	NodesTouched int
	// Updates counts node-score writes: Iterations × node count for a full
	// iteration, Pushes for a completed push repair (a fallback reports
	// both) — the common work metric the modes are compared by.
	Updates int
	// FallbackTaken records that the residual path was attempted but
	// abandoned (seed mass over the safety bound or push budget exhausted);
	// the reported scores come from the warm full iteration.
	FallbackTaken bool
	// Rounds counts the frozen-value push rounds of the residual repair.
	Rounds int
	// Accelerated is never set: no re-rank path reports it. The field
	// stays because benchmark/trace.go reads it (rank.accelerated_ratio).
	Accelerated bool
}

// Mutate applies a batch of tuple inserts and deletes end to end: the
// relational store mutates atomically, the keyword index absorbs the
// posting delta incrementally (shard by shard), the data graph absorbs the
// same delta in place (datagraph.Graph.Apply — work proportional to the
// tuples touched, no rebuild), score vectors grow to cover new tuples (at
// importance 0 unless Rerank is set, which warm-starts each setting's power
// iteration from the prior converged vector), the touched relations' epochs
// advance, and the subjects the batch can reach are stamped so exactly
// their summary-cache entries stop being served. Relations whose tombstones cross the compaction policy are
// physically compacted along the way (see MutationResult.Compacted). The
// write lock serializes the batch against in-flight searches; a search that
// began before the batch completes against the pre-batch state and its
// cached summaries are keyed to the pre-batch stamps, never served
// afterwards to a subject the batch reached.
//
// On a batch validation error (unknown relation, duplicate or dangling
// key, delete of a still-referenced tuple) the engine is untouched. Errors
// after the store commit are returned wrapping ErrMutationInternal: a
// data-graph rebuild or re-rank failure leaves the engine inconsistent, and
// a mutation-log failure leaves the batch applied but unlogged. Once the log
// has failed, every later call returns that failure before touching the
// store, so reads never serve a batch a restart would lose.
func (e *Engine) Mutate(b MutationBatch) (MutationResult, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.logErr != nil {
		return MutationResult{}, e.logErr
	}

	result := MutationResult{Epochs: make(map[string]uint64), Footprint: make(map[string]int)}
	touched := make([]string, 0, 4)
	var res relational.BatchResult
	if batch := (relational.Batch{Deletes: b.Deletes, Inserts: b.Inserts}); !batch.Empty() {
		var err error
		if res, err = e.db.Apply(batch); err != nil {
			return MutationResult{}, err
		}
		result.Inserted = res.InsertedIDs
		result.Versions = res.Versions
		for rel := range res.Versions {
			touched = append(touched, rel)
		}
		sort.Strings(touched)
		for _, rel := range touched {
			e.index.Apply(rel, res.Inserted[rel], res.Deleted[rel])
		}
		// Edit the batch's FK edges into the data graph in place — cost
		// proportional to the tuples touched, not to the database. The
		// randomized mutation-equivalence harness proves this edge-identical
		// to a from-scratch rebuild.
		if err := e.graph.Apply(res); err != nil {
			return result, fmt.Errorf("%w: incremental data graph: %v", ErrMutationInternal, err)
		}
		// Grow every setting's score vectors over the new slots so ranking
		// and extraction never index out of range; fresh tuples carry
		// importance 0 until a re-rank (the raw warm-start vectors grow in
		// lockstep so they stay positionally aligned).
		for _, table := range []map[string]relational.DBScores{e.scores, e.rawScores} {
			for _, sc := range table {
				for _, rel := range touched {
					r := e.db.Relation(rel)
					if s := sc[rel]; len(s) < r.Len() {
						sc[rel] = append(s, make(relational.Scores, r.Len()-len(s))...)
					}
				}
			}
		}
		// Splice the same delta into each compiled G_A's push plans (work
		// proportional to the touched rows), capturing the pre-mutation
		// rows the next residual-push re-rank will seed from. The pending
		// delta must be created before this batch's Apply resizes the
		// arena, so its geometry matches the state the prior raw scores
		// converged under.
		for ga, ps := range e.plans {
			var pend *rank.Pending
			if e.residualOK {
				if e.pending[ga] == nil {
					e.pending[ga] = ps.NewPending()
				}
				pend = e.pending[ga]
			}
			ps.Apply(res, pend)
		}
	}

	// Amortized maintenance: reclaim tombstone-heavy relations.
	if err := e.maybeCompactLocked(&result, b.Inserts); err != nil {
		return result, err
	}

	changed := false
	if b.Rerank {
		var err error
		if changed, err = e.rerankLocked(&result); err != nil {
			return result, err
		}
		result.Reranked = true
	}
	if changed {
		// New scores reorder every match sequence and change every summary.
		for rel := range e.epochs {
			e.epochs[rel]++
			result.Epochs[rel] = e.epochs[rel]
		}
		for ds := range e.baseGDS {
			e.widenLocked(ds, &result)
		}
	} else {
		// Scores did not move: a plain batch, or a rerank-only batch right
		// after a re-rank (a periodic heartbeat must not wipe warm caches).
		// The touched relations' match sequences moved, and the summaries of
		// the subjects the batch can reach.
		for _, rel := range touched {
			e.epochs[rel]++
			result.Epochs[rel] = e.epochs[rel]
		}
		e.stampFootprintLocked(res, &result)
	}
	// Log before acknowledging: once Mutate returns nil, the batch is in the
	// redo log (and, under a synchronous log, on disk). A crash before this
	// point loses only batches no caller was ever told succeeded.
	if err := e.appendLogLocked(func() error { return e.mlog.AppendMutation(b) }, "mutation"); err != nil {
		return result, err
	}
	return result, nil
}

// footprintBudget is how many (G_DS node, tuple) instances one batch's walk
// up one G_DS may visit before the engine invalidates the DS relation
// instead: a bulk load, or a change under a hub every subject reaches. Not
// a setting; the traffic is nowhere near it. Measured on a scratch copy
// logging every walk: mixed_write (seed 1, 14 s, 6,678 walks per G_DS)
// visits 2.4 instances per batch up Author's G_DS (max 4) and 1.2 up Paper's
// (max 2), 7 µs for both; TestMutationEquivalence's batches 11.3 (max 44) on
// DBLP's Author, 2.6 (max 19) on TPC-H's Customer; a walk that gives up at
// 1024 (TestFootprintInvalidation's bulk batch) held the lock 0.2–0.4 ms.
const footprintBudget = 1024

// stampFootprintLocked stamps the subjects the committed batch res can
// reach in each registered G_DS and records the count in result. A DS
// relation a compaction of this same call widened is left alone: res names
// pre-compaction TupleIDs. Callers hold the write lock, epochs advanced.
func (e *Engine) stampFootprintLocked(res relational.BatchResult, result *MutationResult) {
	src := ostree.NewGraphSource(e.graph, nil)
	for ds, gds := range e.baseGDS {
		if result.Footprint[ds] == -1 {
			continue
		}
		subjects, ok := src.Subjects(gds, res, footprintBudget)
		if !ok {
			e.widenLocked(ds, result)
		} else if len(subjects) > 0 {
			if e.subj[ds] == nil {
				e.subj[ds] = make(map[relational.TupleID]uint64, len(subjects))
			}
			epoch := e.epochForLocked(ds)
			for _, t := range subjects {
				e.subj[ds][t] = epoch
			}
			result.Footprint[ds] = len(subjects)
		}
	}
}

// residualRefreshInterval bounds how many consecutive re-ranks may take
// the residual path before one full warm iteration re-grounds the scores:
// each residual repair inherits its prior's sub-epsilon residual, so the
// drift grows (linearly, at epsilon scale) until a full convergence resets
// it. Well inside the fixed-point tolerance at this cadence.
const residualRefreshInterval = 16

// rerankLocked recomputes every setting's global importance over the
// mutated graph and re-annotates the registered G_DSs from the new maxima.
// Mode selection: the residual-push repair runs when it is enabled, the
// pending deltas cover every change since the last full convergence (no
// compaction intervened), and the periodic full refresh isn't due; a
// re-rank with no pending changes at all reuses the served scores as-is
// (they are already the converged fixed point). The returned bool reports
// whether the served scores were recomputed (false only for the reuse
// case, whose scores — and therefore cached summaries — are unchanged).
// Callers hold the write lock.
func (e *Engine) rerankLocked(result *MutationResult) (changed bool, err error) {
	residual := e.residualEnabled && e.residualOK && e.residualRuns < residualRefreshInterval
	tookResidual := residual && len(e.pending) > 0

	var stats map[string]rank.Stats
	if residual && len(e.pending) == 0 {
		// Nothing mutated since the last re-rank: the served scores are
		// already the converged fixed point of the current graph.
		stats = make(map[string]rank.Stats, len(e.settings))
		for _, s := range e.settings {
			stats[s.Name] = rank.Stats{Converged: true, WarmStart: true}
		}
	} else {
		if stats, err = e.rankSettings(residual); err != nil {
			return false, fmt.Errorf("%w: re-rank: %v", ErrMutationInternal, err)
		}
		changed = true
	}

	result.RerankStats = make(map[string]RerankStat, len(stats))
	pushRepairs, fallbacks := 0, 0
	for name, st := range stats {
		saved := e.coldIters[name] - st.Iterations
		if saved < 0 {
			saved = 0
		}
		if st.Fallback {
			fallbacks++
		} else if st.Pushes > 0 {
			pushRepairs++
		}
		result.RerankStats[name] = RerankStat{
			Iterations:      st.Iterations,
			IterationsSaved: saved,
			WarmStart:       st.WarmStart,
			Residual:        tookResidual,
			Pushes:          st.Pushes,
			NodesTouched:    st.ResidualNodes,
			Updates:         st.Updates,
			FallbackTaken:   st.Fallback,
			Rounds:          st.Rounds,
		}
	}
	if changed {
		if err := e.reannotateLocked(); err != nil {
			return changed, fmt.Errorf("%w: re-annotate: %v", ErrMutationInternal, err)
		}
	}
	// The served scores are a converged fixed point again: residual deltas
	// restart from here. The refresh counter tracks accumulated drift, so
	// it only advances when a setting actually completed a push repair
	// (which inherits the prior's sub-epsilon residual), while a full
	// iteration — explicit or via every setting falling back — re-grounds
	// the drift and resets it, and no-op reuse or pure-rescale re-ranks add
	// nothing.
	e.pending = make(map[*rank.GA]*rank.Pending)
	e.residualOK = true
	switch {
	case !residual, tookResidual && fallbacks == len(stats):
		e.residualRuns = 0
	case pushRepairs > 0:
		e.residualRuns++
	}
	return changed, nil
}

// maybeCompactLocked runs the amortized maintenance pass of one Mutate:
// physical compaction of relations whose tombstones crossed the policy.
// Callers hold the write lock. inserts is the batch's insert list, whose
// result ids must be remapped if compaction moves them.
func (e *Engine) maybeCompactLocked(result *MutationResult, inserts []TupleInsert) error {
	if e.compactMin <= 0 {
		return nil
	}
	var due []string
	for _, r := range e.db.Relations {
		if t := r.Tombstones(); t >= e.compactMin && float64(t) > e.compactRatio*float64(r.Len()) {
			due = append(due, r.Name)
		}
	}
	if len(due) == 0 {
		return nil
	}
	return e.compactLocked(due, result, inserts)
}

// compactLocked physically compacts the named relations and threads the
// TupleID remap through every structure that stores them: PK/FK indexes
// (inside Relation.Compact), keyword postings (keyword.Sharded.Remap),
// normalized and raw score vectors, this batch's already-assigned insert
// ids, the data graph (rebuilt over the dense store) and the rank plans
// (recompiled; it is the only recompile after NewEngine). Each compacted
// relation's epoch advances and every DS relation whose G_DS reaches one is
// widened — the TupleIDs its cached trees and subject stamps name changed
// meaning. Callers hold the write lock.
func (e *Engine) compactLocked(rels []string, result *MutationResult, inserts []TupleInsert) error {
	remaps := make(map[string][]relational.TupleID, len(rels))
	for _, rel := range rels {
		r := e.db.Relation(rel)
		remap := r.Compact()
		if remap == nil {
			continue
		}
		remaps[rel] = remap
		e.index.Remap(rel, remap)
		for _, table := range []map[string]relational.DBScores{e.scores, e.rawScores} {
			for _, sc := range table {
				sc[rel] = remapScores(sc[rel], remap, r.Len())
			}
		}
		if result.Versions == nil {
			result.Versions = make(map[string]uint64)
		}
		result.Versions[rel] = r.Version()
		e.epochs[rel]++
		result.Epochs[rel] = e.epochs[rel]
		result.Compacted = append(result.Compacted, rel)
	}
	if len(remaps) == 0 {
		return nil
	}
	for ds, deps := range e.deps {
		for _, rel := range deps {
			if _, ok := remaps[rel]; ok {
				e.widenLocked(ds, result)
				break
			}
		}
	}
	for i, in := range inserts {
		if remap, ok := remaps[in.Rel]; ok && i < len(result.Inserted) {
			result.Inserted[i] = remap[result.Inserted[i]]
		}
	}
	g, err := datagraph.Build(e.db)
	if err != nil {
		return fmt.Errorf("%w: rebuild data graph after compaction: %v", ErrMutationInternal, err)
	}
	e.graph = g
	// The remap moved TupleIDs out from under the compiled plans and any
	// captured residual deltas: recompile fresh and force the next re-rank
	// onto the warm full iteration.
	plans, err := compilePlans(g, e.settings)
	if err != nil {
		return fmt.Errorf("%w: recompile rank plans after compaction: %v", ErrMutationInternal, err)
	}
	e.plans = plans
	e.pending = make(map[*rank.GA]*rank.Pending)
	e.residualOK = false
	// Refresh the Max/MMax annotation inputs of the compacted relations:
	// dropping tombstoned entries can lower a relation's max score, and
	// tighter bounds mean better pruning. A re-rank later in the same Mutate
	// redoes both: microseconds, beside the graph rebuild above.
	for name, m := range e.relMax {
		for rel := range remaps {
			m[rel] = e.scores[name][rel].MaxScore()
		}
	}
	if err := e.reannotateLocked(); err != nil {
		return fmt.Errorf("%w: re-annotate after compaction: %v", ErrMutationInternal, err)
	}
	return nil
}

// remapScores rebuilds one relation's score vector after compaction:
// surviving slots keep their scores at their new positions, reclaimed
// tombstone entries vanish.
func remapScores(s relational.Scores, remap []relational.TupleID, newLen int) relational.Scores {
	out := make(relational.Scores, newLen)
	for old, nw := range remap {
		if nw >= 0 && old < len(s) {
			out[nw] = s[old]
		}
	}
	return out
}

// CompactNow physically compacts every relation carrying tombstones,
// regardless of the automatic policy, and returns the relations compacted.
// Useful after a bulk retraction when the caller wants memory back
// immediately instead of waiting for the next batch to cross the threshold.
func (e *Engine) CompactNow() ([]string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.logErr != nil {
		return nil, e.logErr
	}
	var due []string
	for _, r := range e.db.Relations {
		if r.Tombstones() > 0 {
			due = append(due, r.Name)
		}
	}
	if len(due) == 0 {
		return nil, nil
	}
	result := MutationResult{Epochs: make(map[string]uint64), Footprint: make(map[string]int)}
	if err := e.compactLocked(due, &result, nil); err != nil {
		return result.Compacted, err
	}
	// An explicit compaction changes physical layout outside any batch;
	// recovery must replay it at the same point to keep TupleIDs aligned.
	if err := e.appendLogLocked(func() error { return e.mlog.AppendCompact() }, "compact"); err != nil {
		return result.Compacted, err
	}
	return result.Compacted, nil
}

// EpochFor returns the dependency-set epoch of one DS relation: the summed
// epochs of every relation its G_DS can reach (the value cursors embed).
func (e *Engine) EpochFor(dsRel string) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epochForLocked(dsRel)
}

// Package relational implements the in-memory relational storage engine
// underlying the size-l Object Summary system. It is the substrate the paper
// ran on MySQL: typed relations with primary/foreign keys, hash indexes for
// key lookups and joins, and an importance-ordered foreign-key index that
// supports the paper's Avoidance Condition 2 extraction
//
//	SELECT * TOP l FROM Ri WHERE tj.ID = Ri.ID AND Ri.li > largest-l
//
// as a bounded prefix scan instead of a full join.
//
// The engine is deliberately small and dependency-free (stdlib only), but it
// is a real engine: all OS generation paths that the paper runs "directly
// from the database" go through this package's scan/join operators and are
// charged to an access counter so experiments can report I/O-equivalent
// costs.
//
// # Invariants
//
// The mutation contract below is what every derived structure (keyword
// postings, data graph, compiled rank plans, score vectors) leans on;
// relational.DB.Apply is fuzzed (FuzzApply) against it.
//
//   - Deletes are tombstones: the slot AND its content stay until a
//     physical compaction, so TupleIDs, data-graph node ids and
//     score-vector positions remain stable, and maintenance code can still
//     read a deleted tuple's values (to retract postings and mirror
//     edges). The tuple leaves every index immediately: PK/FK lookups and
//     scans see live tuples only.
//   - Insert ids are append-only: a fresh tuple always takes a slot larger
//     than every existing id of its relation. Delete-then-reinsert of the
//     same primary key yields a fresh slot; the PK index points at the
//     live one.
//   - DB.Apply is atomic — deletes first, then inserts, each in request
//     order, with referential integrity enforced both directions; any
//     failure rolls the store back to its exact pre-batch state (versions
//     still advance).
//   - BatchResult's per-relation Inserted/Deleted lists are ASCENDING
//     regardless of request order. Incremental index maintenance merges
//     them against ascending posting lists and silently corrupts on
//     unsorted input; this is a load-bearing contract, not a convenience.
//   - Relation.Compact returns a monotonic old→new TupleID remap (-1 for
//     reclaimed slots) and fixes the PK/FK indexes itself; the caller must
//     thread the remap through every other TupleID holder in the same
//     critical section — keyword postings, score vectors, in-flight
//     batch results, epochs, and the data graph — or
//     drop them.
//   - Relation.Version only moves forward, including on failed batches.
package relational

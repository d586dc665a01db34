// Package keyword implements the query front-end of the OS paradigm: an
// inverted index over string attributes that maps a keyword query to the
// data-subject tuples t_DS containing the keyword(s) as part of an
// attribute's value (paper §2.1). One size-l OS is then produced per
// matching DS tuple, as in Example 5.
//
// There is one index, Sharded: tokens are hash-partitioned across
// independent posting maps built in parallel, and the engine holds it
// concretely. A query is always against one DS relation, which the engine
// knows; Lookup and SearchStream both run the one galloping intersection
// over the keywords' posting lists. Apply (incremental posting deltas for
// mutation batches) and Remap (TupleID remaps after physical compaction)
// run on the caller's goroutine: a batch touches a handful of tokens. The
// tests' reference is a plain scan of the live tuples that shares no code
// with the postings.
//
// # Invariants
//
//   - Posting lists are ascending and deduplicated across columns: a token
//     appearing in two string columns of one tuple posts that tuple once.
//     The build and Apply post through one tokenizer, tokenizeTuple.
//     Stream results are ranked by the caller-supplied global importance,
//     ties broken by TupleID.
//   - Posting lists hold LIVE tuples only. Apply retracts a
//     deleted tuple's postings by re-tokenizing its retained slot content;
//     it therefore requires the relational layer's tombstone contract
//     (content kept until compaction) and per-relation id lists in
//     ascending order — the relational.BatchResult contract.
//   - Incremental maintenance is exact: after any sequence of Apply calls
//     the index is bit-identical to a from-scratch rebuild over the
//     mutated store — same tokens, same posting lists, same shards — at
//     every shard count (delta_test.go enforces this on DBLP and TPC-H at
//     1/4/17 shards).
//   - Apply routes each token with the same FNV hash that placed it at
//     build time; a token's shard assignment never changes across
//     maintenance.
//   - Remap is sound only because postings are live-only: a
//     monotonic TupleID remap (relational.Relation.Compact's return)
//     rewrites every posting without re-tokenization. Remapping with a
//     non-compaction (non-monotonic) map would corrupt posting order.
package keyword

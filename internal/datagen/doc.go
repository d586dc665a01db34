// Package datagen builds the two evaluation databases of the paper —
// DBLP-like and TPC-H-like — as deterministic, seeded synthetic datasets,
// together with their Authority Transfer Schema Graphs (G_A, Figure 13) and
// expert Data Subject Schema Graphs (G_DS, Figures 2 and 12).
//
// Substitution note (see DESIGN.md §3): the paper used a 2011 DBLP snapshot
// (2.96M tuples) and TPC-H sf=1 (8.66M tuples). Neither is available
// offline, so the generators reproduce the structural properties the
// algorithms are sensitive to — Zipf author productivity, preferential-
// attachment citations, dbgen table ratios, discriminative value columns —
// at configurable laptop scale.
//
// # Invariants
//
//   - Generation is deterministic per (config, seed): every test fixture,
//     benchmark baseline and harness replay depends on identical datasets
//     across runs. Changing a generator's draw sequence invalidates
//     benchmark/baseline.json, docs/experiments-seed1.txt and harness
//     seeds — bump consciously.
//   - Generated value columns (totalprice, extendedprice, supplycost) are
//     strictly positive so ValueRank splits stay well-defined.
package datagen

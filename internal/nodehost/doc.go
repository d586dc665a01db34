// Package nodehost assembles one ossrv fleet node's serving stack: dataset
// construction and the Hub that wires a tenancy.Registry to a
// durable.Store (recover on first touch, record and forget the tenant
// lifecycle, the WAL each recovery hands the registry).
//
// It exists as a package — rather than living inside cmd/ossrv — so that
// the routing tier's tests and the scale-out harness can boot full durable
// nodes in-process: a fleet test needs three of these, and a migration test
// needs to drive the release/adopt handoff against real WALs.
//
// Invariants:
//
//   - Boot validates the one tenancy.ServerConfig and builds the registry
//     with the Hub as its Recoverer and Durability (neither in memory);
//     Config holds only node-local hooks.
//   - One table maps a dataset name to its fresh build and its restore.
//   - Specs are recorded with their seed resolved (a changed deployment
//     default must never silently diverge a tenant's recovery recipe).
//   - The Hub keeps no per-tenant state: each open WAL is the attachment of
//     its tenant's registry entry. The registry's Release takes a
//     best-effort final snapshot (logged here) and closes the WAL but never
//     deletes durable state; ForgetTenant deletes it. A released name is
//     not re-adopted here without explicit re-registration.
//   - LookupPending (part of tenancy.Durability) re-reads the shared
//     manifest, so a node can adopt on first touch a tenant that another
//     fleet node recorded after this node booted.
package nodehost

// Package store persists harness results as versioned JSONL records in one
// of two layouts behind a single API. A plain single-file JSONL store (the
// original format) keeps one record per line; a sharded segment store is a
// directory of append-only segment files plus a manifest listing live
// segments and a per-key sidecar index per segment, so key scans and point
// lookups never deserialize the corpus. Open auto-detects the layout, and
// Query streams deduped records — last write per configuration key wins,
// first-appearance order is preserved — through the same iterator for both,
// so consumers are layout-agnostic. Appending is cheap and crash-tolerant:
// a store file or segment is its newline-terminated prefix, so readers
// ignore the bytes after its last newline (a torn append) and the next
// append truncates them. Runs from different invocations accumulate into
// one dataset, and re-running a configuration supersedes its old
// measurement. This is what turns one-shot sweeps into the accumulating
// datasets the model-fitting layer consumes.
//
// Records carry a schema version (SchemaVersion); every version back to v1
// loads transparently. The record schema's history and both on-disk
// layouts are documented in docs/WIRE.md.
package store

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
// Decoding dominates a full read, and records decode independently, so
// Query reads a window of records at a time, decodes the window on every
// CPU (par.Map) and yields it in order: consumers see the serial sequence,
// errors included. A bulk Append encodes its windows the same way and
// writes them in order, after checking every key, so a refused batch
// writes nothing. A single-record Append stays on the caller, so a sweep's
// sink never runs goroutines beside a measured region.
//
// Records carry a schema version (SchemaVersion); every version back to v1
// loads transparently. The record schema's history and both on-disk
// layouts are documented in docs/WIRE.md.
package store

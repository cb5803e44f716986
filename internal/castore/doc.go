// Package castore is a crash-safe, disk-backed content-addressed store for
// the debloating pipeline's derived artifacts: library images, sparse-image
// range sets, verified usage profiles, library reports, and job manifests.
//
// Objects are addressed by (kind, key) where kind namespaces the artifact
// type and key is a content digest (or a stable identifier for manifests).
// Every object is written crash-safely — payload plus an integrity header go
// to a temp file, then atomically renamed into place — so a reader sees the
// complete object or nothing, and Verify scans the whole store and removes
// anything that fails its checksum. The data and rename fsyncs are deferred
// to a group commit (SyncDirs) that callers run at durability points; a
// large one flushes the store's filesystem with one syncfs(2) and falls back
// to per-path fsync when that fails.
//
// The store is byte-budgeted: beyond MaxBytes, the least-recently-used
// unreferenced objects are deleted. Reference counts (Retain/Release) are an
// in-memory overlay rebuilt by the owner on boot — the serving layer pins
// the objects its restored jobs still need, and everything else is fair
// game for eviction.
package castore

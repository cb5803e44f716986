// Package ingest turns an on-disk tree — an unpacked wheel, a site-packages
// directory, or an install written by mlframework.WriteTo — into a debloatable
// install unit.
//
// Tree walks the directory deterministically, classifies every file by
// content (ELF shared objects by magic sniffing; scripts, data, and the
// install.json manifest are recognized and skipped), parses each shared
// object's dynamic section for DT_SONAME and DT_NEEDED, and resolves the
// dependency graph into a closure rooted at the tree's entry libraries.
// Result.Install materializes the closure as an mlframework.Install whose
// fingerprint derives from the real file bytes, so ingested trees ride the
// detect → locate → compact → verify stage DAG, the memo tiers, and the
// cluster ring exactly like generated installs.
//
// A file repeating a library's bytes under another name (a versioned
// symlink, a hardlink, a copy) is an alias of that library, not a second
// provider. Every file report records the SHA-256 of the bytes it was
// classified from. Result.Unchanged re-walks the tree without parsing to
// tell whether a fresh Tree would return the same result — the content
// check that lets a long-lived node reuse one parsed install. It compares
// shared objects and the manifest byte for byte with the bytes the Result
// already holds, and hashes only the files it does not hold.
//
// Ingestion is the first code path fed by files this process did not author:
// every anomaly — symlink loops, truncated ELF headers, unreadable files,
// missing dependencies — is classified or rejected with an error, never
// silently skipped.
package ingest

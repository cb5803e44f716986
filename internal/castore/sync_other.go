//go:build !linux

package castore

// bulkSync reports that no filesystem-wide flush is available; SyncDirs
// falls back to per-path fsync.
func bulkSync(string) bool {
	return false
}

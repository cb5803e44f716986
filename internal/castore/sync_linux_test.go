//go:build linux

package castore

import (
	"fmt"
	"testing"

	"negativaml/internal/metrics"
)

// TestSyncDirsBulkPath pins the large group commit to syncfs(2): a
// SyncDirs owing bulkSyncThreshold or more paths flushes the store's
// filesystem in one call, without falling back, and leaves nothing dirty.
func TestSyncDirsBulkPath(t *testing.T) {
	counters := metrics.NewCounterSet()
	s, err := Open(t.TempDir(), Options{Counters: counters})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Hold the sweep lock while the objects land, so the background sweep
	// their Puts may start cannot flush part of the set first: whichever
	// sweep takes the lock next owes every path.
	s.syncMu.Lock()
	for i := 0; i < bulkSyncThreshold; i++ {
		mustPut(t, s, "lib", []byte(fmt.Sprintf("object %d", i)))
	}
	s.mu.Lock()
	owed := len(s.dirtyFiles) + len(s.dirtyDirs)
	s.mu.Unlock()
	s.syncMu.Unlock()
	if owed < bulkSyncThreshold {
		t.Fatalf("%d paths owed, want at least %d", owed, bulkSyncThreshold)
	}
	s.SyncDirs()
	if bulk, fell := counters.Get("store.bulk_syncs"), counters.Get("store.bulk_sync_fallbacks"); bulk != 1 || fell != 0 {
		t.Fatalf("bulk syncs %d, fallbacks %d; want one syncfs and no fallback", bulk, fell)
	}
	s.mu.Lock()
	left := len(s.dirtyFiles) + len(s.dirtyDirs)
	s.mu.Unlock()
	if left != 0 {
		t.Fatalf("dirty entries left after SyncDirs: %d", left)
	}
}

//go:build linux

package castore

import "syscall"

// bulkSync flushes the filesystem holding dir with one syncfs(2) call and
// reports whether it succeeded. For a large dirty set this is one journal
// commit where per-path fsync pays one per file. Every file and rename
// SyncDirs owes lives under dir, so the flushed set is a superset of them
// and the durability contract (data and renames durable at commit points)
// holds; unlike sync(2), other filesystems' dirty pages — other tenants'
// writes — are left alone. A failure (ENOSYS, a writeback error) reports
// false, and SyncDirs falls back to per-path fsync.
func bulkSync(dir string) bool {
	fd, err := syscall.Open(dir, syscall.O_RDONLY|syscall.O_DIRECTORY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return false
	}
	defer syscall.Close(fd)
	_, _, errno := syscall.Syscall(sysSyncfs, uintptr(fd), 0, 0)
	return errno == 0
}

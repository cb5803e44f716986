//go:build linux && !amd64 && !386

package castore

import "syscall"

// sysSyncfs is syncfs(2)'s system call number.
const sysSyncfs = syscall.SYS_SYNCFS

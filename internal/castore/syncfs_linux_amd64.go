package castore

// sysSyncfs is syncfs(2)'s system call number; the frozen syscall package
// does not name it on amd64.
const sysSyncfs = 306

package castore

// sysSyncfs is syncfs(2)'s system call number; the frozen syscall package
// does not name it on 386.
const sysSyncfs = 344

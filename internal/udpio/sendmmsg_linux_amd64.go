package udpio

// sysSENDMMSG is sendmmsg's system call number, which package syscall
// does not name on linux/amd64.
const sysSENDMMSG = 307

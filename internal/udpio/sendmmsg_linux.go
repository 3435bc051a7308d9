//go:build !amd64 && !386

package udpio

import "syscall"

const sysSENDMMSG = syscall.SYS_SENDMMSG

package udpnet

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG

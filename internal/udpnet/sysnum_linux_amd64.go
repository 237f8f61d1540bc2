package udpnet

// sysSendmmsg is sendmmsg(2)'s syscall number; std's syscall package
// omits it on amd64.
const sysSendmmsg = 307

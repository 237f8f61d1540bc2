//go:build linux && (amd64 || arm64)

package udpnet

import (
	"encoding/binary"
	"net"
	"strconv"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr: one message header plus
// the byte count sendmmsg reports for it. Go pads the struct to its
// alignment, matching the C layout on 64-bit targets.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
}

// txBatch hands a whole tx queue to the kernel with one sendmmsg(2)
// call. Every array is preallocated with Batch entries and the
// RawConn callback is bound once, so a flush allocates nothing.
type txBatch struct {
	raw   syscall.RawConn
	write func(fd uintptr) bool // t.send, bound once at init
	inet6 bool                  // AF_INET6 socket: IPv4 peers go v4-mapped

	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	addrs []syscall.RawSockaddrInet6 // large enough for either family

	// State of the flush in progress, read and advanced by send.
	next, end  int
	sent, errs int64
	bytes      int64
}

func (n *Node) initTx() error {
	raw, err := n.conn.SyscallConn()
	if err != nil {
		return err
	}
	// The bound address carries the socket's family: Go binds wildcard
	// listens to dual-stack AF_INET6 sockets and reports them as "::".
	n.tx.init(raw, n.addr.Addr().Is6(), n.cfg.Batch)
	return nil
}

func (t *txBatch) init(raw syscall.RawConn, inet6 bool, size int) {
	t.raw = raw
	t.write = t.send
	t.inet6 = inet6
	t.hdrs = make([]mmsghdr, size)
	t.iovs = make([]syscall.Iovec, size)
	t.addrs = make([]syscall.RawSockaddrInet6, size)
	for i := range t.hdrs {
		h := &t.hdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&t.addrs[i]))
		h.Iov = &t.iovs[i]
		h.Iovlen = 1
	}
}

// writeTx sends the tx queue with one sendmmsg (more only if the socket
// fills or rejects a datagram). The queue never outgrows the arrays:
// Transmit flushes at Batch frames. tx_datagrams and tx_bytes sum the
// kernel's per-message msg_len; each datagram the kernel rejects counts
// one tx_socket_errors.
func (n *Node) writeTx() {
	t := &n.tx
	for i := range n.txq {
		t.fill(i, &n.txq[i])
	}
	t.next, t.end = 0, len(n.txq)
	t.sent, t.errs, t.bytes = 0, 0, 0
	if err := t.raw.Write(t.write); err != nil {
		// The socket is closed (Close raced the flush): what is left
		// was never sent.
		t.errs += int64(t.end - t.next)
	}
	n.ctr.txDatagrams.Add(t.sent)
	n.ctr.txBytes.Add(t.bytes)
	n.ctr.txSocketErr.Add(t.errs)
}

// fill points message i at frame f and writes f's destination into the
// message's sockaddr.
func (t *txBatch) fill(i int, f *txFrame) {
	t.iovs[i].Base = &f.enc[0]
	t.iovs[i].SetLen(len(f.enc))
	sa := &t.addrs[i]
	a := f.to.Addr()
	if a.Is4() && !t.inet6 {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		sa4.Family = syscall.AF_INET
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa4.Port))[:], f.to.Port())
		sa4.Addr = a.As4()
		t.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet4
		return
	}
	// An IPv6 peer on an AF_INET socket still gets a sockaddr_in6: the
	// kernel rejects that one message (EAFNOSUPPORT) and the rest go out.
	sa.Family = syscall.AF_INET6
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&sa.Port))[:], f.to.Port())
	sa.Flowinfo = 0
	sa.Addr = a.As16() // v4-mapped for IPv4 peers
	sa.Scope_id = 0
	if z := a.Zone(); z != "" {
		sa.Scope_id = zoneIndex(z)
	}
	t.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
}

// send is the RawConn write callback. It returns false only on EAGAIN,
// which parks the loop on Go's netpoller until the socket is writable;
// the next call resumes at the first unsent message.
func (t *txBatch) send(fd uintptr) bool {
	for t.next < t.end {
		r, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&t.hdrs[t.next])), uintptr(t.end-t.next), 0, 0, 0)
		switch errno {
		case 0:
			for i := t.next; i < t.next+int(r); i++ {
				t.bytes += int64(t.hdrs[i].len)
			}
			t.sent += int64(r)
			t.next += int(r)
		case syscall.EAGAIN:
			return false
		case syscall.EINTR:
		default:
			// sendmmsg reports an error only for the first message of
			// the call: skip that datagram and resume at the next.
			t.errs++
			t.next++
		}
	}
	return true
}

// zoneIndex maps an IPv6 zone (interface name or number) to the
// sockaddr scope id; unknown zones map to 0.
func zoneIndex(zone string) uint32 {
	if ifi, err := net.InterfaceByName(zone); err == nil {
		return uint32(ifi.Index)
	}
	idx, _ := strconv.ParseUint(zone, 10, 32)
	return uint32(idx)
}

//go:build linux && (amd64 || arm64)

package udpnet

import (
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

func fileConn(t *testing.T, fd int) net.Conn {
	t.Helper()
	f := os.NewFile(uintptr(fd), "socketpair")
	defer f.Close()
	c, err := net.FileConn(f)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// When the socket stops taking datagrams (EAGAIN), the sendmmsg callback
// must park on the netpoller and resume at the first unsent message —
// not spin. Loopback UDP never runs out of send buffer (the loopback
// device releases each datagram at once), so this drives a datagram
// socketpair with a minimal send buffer, whose datagrams stay charged to
// the sender until a slow reader takes them.
func TestTxBatchParksWhenSocketFull(t *testing.T) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_DGRAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.SetsockoptInt(fds[0], syscall.SOL_SOCKET, syscall.SO_SNDBUF, 1); err != nil {
		t.Fatal(err)
	}
	tx, rx := fileConn(t, fds[0]), fileConn(t, fds[1])
	raw, err := tx.(syscall.Conn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}

	const frames = 64
	var b txBatch
	b.init(raw, false, frames)
	payload := make([]byte, 1400)
	for i := range b.hdrs {
		b.iovs[i].Base = &payload[0]
		b.iovs[i].SetLen(len(payload))
		b.hdrs[i].hdr.Name, b.hdrs[i].hdr.Namelen = nil, 0 // connected pair
	}

	read := make(chan int, 1)
	go func() {
		buf := make([]byte, 2048)
		n := 0
		for ; n < frames; n++ {
			time.Sleep(time.Millisecond)
			if _, err := rx.Read(buf); err != nil {
				break
			}
		}
		read <- n
	}()

	wall0, cpu0 := time.Now(), cpuTime(t)
	b.next, b.end = 0, frames
	if err := raw.Write(b.write); err != nil {
		t.Fatal(err)
	}
	wall, cpu := time.Since(wall0), cpuTime(t)-cpu0

	if b.sent != frames || b.errs != 0 || b.bytes != frames*int64(len(payload)) {
		t.Fatalf("sent %d (%d bytes), errors %d; want %d frames, 0 errors", b.sent, b.bytes, b.errs, frames)
	}
	if got := <-read; got != frames {
		t.Fatalf("reader got %d frames, want %d", got, frames)
	}
	if wall < 10*time.Millisecond {
		t.Skipf("flush finished in %v without filling the send buffer", wall)
	}
	if cpu > wall/2 {
		t.Errorf("flush burned %v CPU over %v waiting for the reader — busy-looping", cpu, wall)
	}
}

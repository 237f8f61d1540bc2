package udpnet

import (
	"net"
	"testing"
	"time"

	"eden/internal/compiler"
	"eden/internal/enclave"
	"eden/internal/metrics"
	"eden/internal/packet"
	"eden/internal/trace"
	"eden/internal/transport"
)

var (
	ipA = packet.MustParseIP("10.0.0.1")
	ipB = packet.MustParseIP("10.0.0.2")
)

// startPair launches two loopback nodes routed at each other.
func startPair(t *testing.T, aCfg, bCfg Config) (*Node, *Node) {
	t.Helper()
	aCfg.IP, bCfg.IP = ipA, ipB
	a, err := Start(aCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Start(bCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := a.AddPeer(ipB, b.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(ipA, a.Addr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func waitCounter(t *testing.T, c *metrics.Counter, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", what, c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNodeRawLoopback exchanges a raw (non-TCP) packet between two OS
// processes' worth of nodes over real loopback UDP, metadata included.
func TestNodeRawLoopback(t *testing.T) {
	got := make(chan *packet.Packet, 16)
	bCfg := Config{OnRaw: func(pk *packet.Packet) {
		cp := *pk // the pooled packet dies with the callback; copy it
		cp.Payload = append([]byte(nil), pk.Payload...)
		select {
		case got <- &cp:
		default:
		}
	}}
	a, b := startPair(t, Config{}, bCfg)

	mk := func() *packet.Packet {
		pk := packet.NewUDP(ipA, ipB, 5000, 5001, 4)
		pk.Payload = []byte("ping")
		pk.Meta.Class = "app.raw"
		pk.Meta.MsgID = 7
		return pk
	}
	// UDP is lossy even on loopback in principle; re-inject until the
	// receiver sees one.
	deadline := time.Now().Add(5 * time.Second)
	var rcvd *packet.Packet
	for rcvd == nil {
		if time.Now().After(deadline) {
			t.Fatal("raw packet never arrived")
		}
		a.Inject(mk())
		select {
		case rcvd = <-got:
		case <-time.After(50 * time.Millisecond):
		}
	}
	if string(rcvd.Payload) != "ping" || rcvd.Meta.Class != "app.raw" || rcvd.Meta.MsgID != 7 {
		t.Fatalf("received %+v payload %q", rcvd.Meta, rcvd.Payload)
	}
	if rcvd.IP.Src != ipA || rcvd.UDPHdr.DstPort != 5001 {
		t.Fatalf("headers did not survive: %+v", rcvd)
	}
	// The receiver can see the datagram before the sender's flush has
	// counted it.
	waitCounter(t, a.Metrics().Counter("tx_datagrams"), 1, "tx_datagrams")
	waitCounter(t, b.Metrics().Counter("rx_raw_delivered"), 1, "rx_raw_delivered")
}

// TestNodeTCPMessageTransfer runs the full transport stack — handshake,
// windowing, retransmission timers — over real sockets: a dials b,
// sends a multi-segment message, and b's OnMessage must fire with the
// metadata intact.
func TestNodeTCPMessageTransfer(t *testing.T) {
	done := make(chan packet.Metadata, 1)
	a, b := startPair(t, Config{}, Config{})
	b.Listen(80, func(c *transport.Conn) {
		c.OnMessage = func(meta packet.Metadata) {
			select {
			case done <- meta:
			default:
			}
		}
	})
	c := a.Dial(ipB, 80)
	if c == nil {
		t.Fatal("Dial returned nil")
	}
	const size = 100_000
	a.DoWait(func() {
		c.SendMessage(size, packet.Metadata{Class: "app.msg", MsgID: 42, MsgSize: size})
	})
	select {
	case meta := <-done:
		if meta.Class != "app.msg" || meta.MsgID != 42 {
			t.Fatalf("message metadata mismatch: %+v", meta)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("message never completed; a tx=%d b rx=%d",
			a.Metrics().Counter("tx_datagrams").Load(),
			b.Metrics().Counter("rx_datagrams").Load())
	}
	snap := b.TransportMetrics()
	if snap.Counters["segments_rcvd"] == 0 {
		t.Errorf("transport snapshot shows no segments: %+v", snap.Counters)
	}
}

// TestNodeEnclaveIngressDrop installs a firewall action function on the
// receiver's OS attach point and asserts the verdict is enforced on
// real traffic (and counted), exactly as in the simulator.
func TestNodeEnclaveIngressDrop(t *testing.T) {
	enc := enclave.New(enclave.Config{
		Name:     "b-os",
		Platform: "os",
		Clock:    func() int64 { return time.Now().UnixNano() },
	})
	f := compiler.MustCompile("dropper", "fun (p, m, g) ->\n if p.dst_port = 23 then p.drop <- 1")
	if err := enc.InstallFunc(f); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.CreateTable(enclave.Ingress, "fw"); err != nil {
		t.Fatal(err)
	}
	if err := enc.AddRule(enclave.Ingress, "fw", enclave.Rule{Pattern: "*", Func: "dropper"}); err != nil {
		t.Fatal(err)
	}

	got := make(chan uint16, 16)
	bCfg := Config{OS: enc, OnRaw: func(pk *packet.Packet) {
		select {
		case got <- pk.UDPHdr.DstPort:
		default:
		}
	}}
	a, b := startPair(t, Config{}, bCfg)

	deadline := time.Now().Add(5 * time.Second)
	var passed uint16
	for passed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("allowed packet never arrived")
		}
		a.Inject(packet.NewUDP(ipA, ipB, 5000, 23, 0)) // firewalled
		a.Inject(packet.NewUDP(ipA, ipB, 5000, 80, 0)) // allowed
		select {
		case passed = <-got:
		case <-time.After(50 * time.Millisecond):
		}
	}
	if passed != 80 {
		t.Fatalf("firewalled packet delivered (port %d)", passed)
	}
	waitCounter(t, b.Metrics().Counter("verdict_drops"), 1, "verdict_drops")
}

// TestNodeMalformedDatagrams blasts garbage at a node's socket: every
// datagram must be counted and discarded without panicking, and the
// pooled buffers must all come back (the reader legitimately holds one
// for its in-flight read).
func TestNodeMalformedDatagrams(t *testing.T) {
	n, err := Start(Config{IP: ipA})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	conn, err := net.Dial("udp", n.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	valid := AppendPacket(nil, packet.New(ipB, ipA, 1, 2, 0))
	payloads := [][]byte{
		[]byte("not a frame at all"),
		{frameMagic, 99, 0},
		valid[:len(valid)-3],
		append(append([]byte(nil), valid...), 0xFF),
	}
	for _, p := range payloads {
		if _, err := conn.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	waitCounter(t, n.Metrics().Counter("rx_decode_errors"), int64(len(payloads)), "rx_decode_errors")

	deadline := time.Now().Add(5 * time.Second)
	for {
		bufOut := n.Metrics().Gauge("pool_buf_outstanding").Load()
		pktOut := n.Metrics().Gauge("pool_pkt_outstanding").Load()
		if bufOut <= 1 && pktOut == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled memory leaked: buf_outstanding=%d pkt_outstanding=%d", bufOut, pktOut)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n, err := Start(Config{IP: ipA})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n.Do(func() {}) {
		t.Error("Do succeeded after Close")
	}
	if n.DoWait(func() {}) {
		t.Error("DoWait succeeded after Close")
	}
	// Metrics sources must stay callable after Close (ops servers
	// outlive nodes during shutdown).
	_ = n.TransportMetrics()
}

// TestNodeTracing covers the hop-stamping hooks: a packet sampled on the
// sender's egress carries its trace id over the wire, the receiver
// records rx and deliver hops, and the merged timelines reconstruct the
// whole journey in order. A routeless packet records a drop.
func TestNodeTracing(t *testing.T) {
	aTr := trace.NewTracer(256, 64)
	aTr.SeedIDs(1 << 40)
	bTr := trace.NewTracer(256, 64)
	bTr.SeedIDs(2 << 40)
	got := make(chan struct{}, 16)
	a, _ := startPair(t,
		Config{Tracer: aTr},
		Config{Tracer: bTr, OnRaw: func(pk *packet.Packet) {
			select {
			case got <- struct{}{}:
			default:
			}
		}})

	deadline := time.Now().Add(5 * time.Second)
	delivered := false
	for !delivered {
		if time.Now().After(deadline) {
			t.Fatal("traced packet never arrived")
		}
		a.Inject(packet.NewUDP(ipA, ipB, 5000, 5001, 0))
		select {
		case <-got:
			delivered = true
		case <-time.After(50 * time.Millisecond):
		}
	}

	// Sender recorded tx, receiver recorded rx and deliver, all under
	// ids from the sender's seeded space.
	ids := aTr.Packets()
	if len(ids) == 0 {
		t.Fatal("sender tracer sampled nothing")
	}
	var id uint64
	deadline = time.Now().Add(5 * time.Second)
	for id == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no trace id seen by both nodes: a=%v b=%v", aTr.Packets(), bTr.Packets())
		}
		for _, cand := range bTr.Packets() {
			if len(aTr.PacketEvents(cand)) > 0 {
				id = cand
			}
		}
		time.Sleep(time.Millisecond)
	}
	if id>>40 != 1 {
		t.Errorf("trace id %#x not from the sender's seeded space", id)
	}

	merged := trace.MergeTimelines(aTr.PacketEvents(id), bTr.PacketEvents(id))
	var kinds []trace.Kind
	for _, ev := range merged {
		kinds = append(kinds, ev.Kind)
	}
	wantOrder := []trace.Kind{trace.KindTx, trace.KindRx, trace.KindDeliver}
	wi := 0
	for _, k := range kinds {
		if wi < len(wantOrder) && k == wantOrder[wi] {
			wi++
		}
	}
	if wi != len(wantOrder) {
		t.Errorf("merged timeline %v missing tx->rx->deliver order", kinds)
	}
	for _, ev := range merged {
		switch ev.Kind {
		case trace.KindTx:
			if ev.Node != "udpnet.10.0.0.1" {
				t.Errorf("tx event on node %q", ev.Node)
			}
		case trace.KindRx, trace.KindDeliver:
			if ev.Node != "udpnet.10.0.0.2" {
				t.Errorf("%v event on node %q", ev.Kind, ev.Node)
			}
		}
	}

	// A routeless destination records a drop hop with a detail.
	ipC := packet.MustParseIP("10.0.0.3")
	a.Inject(packet.NewUDP(ipA, ipC, 5000, 5001, 0))
	waitCounter(t, a.Metrics().Counter("tx_no_route"), 1, "tx_no_route")
	found := false
	deadline = time.Now().Add(5 * time.Second)
	for !found {
		if time.Now().After(deadline) {
			t.Fatal("no-route drop never recorded")
		}
		for _, ev := range aTr.Events() {
			if ev.Kind == trace.KindDrop && ev.Detail == "no-route" {
				found = true
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// flushFrames transmits pkts from the node's event loop. With len(pkts)
// equal to Batch, the last Transmit flushes the whole queue inline, so
// the tx counters are final when it returns.
func flushFrames(t *testing.T, n *Node, pkts []*packet.Packet) {
	t.Helper()
	if !n.DoWait(func() {
		for _, pk := range pkts {
			n.Transmit(pk)
		}
	}) {
		t.Fatal("node closed")
	}
}

func wantCounter(t *testing.T, n *Node, name string, want int64) {
	t.Helper()
	if got := n.Metrics().Counter(name).Load(); got != want {
		t.Errorf("%s = %d, want %d", name, got, want)
	}
}

// A full 32-frame flush alternating between two receivers counts every
// datagram and every encoded byte exactly once, in one flush — from an
// IPv4 socket to IPv4 peers, and from a dual-stack socket to one IPv4
// peer (sent v4-mapped) and one IPv6 peer.
func TestNodeFlushTwoReceivers(t *testing.T) {
	for _, tc := range []struct{ name, listenA, listenC string }{
		{"ipv4", "127.0.0.1:0", "127.0.0.1:0"},
		{"dual-stack", ":0", "[::1]:0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ipC := packet.MustParseIP("10.0.0.3")
			a, b := startPair(t, Config{Listen: tc.listenA}, Config{})
			c, err := Start(Config{IP: ipC, Listen: tc.listenC})
			if err != nil {
				t.Skipf("no receiver on %s: %v", tc.listenC, err)
			}
			t.Cleanup(func() { c.Close() })
			if err := a.AddPeer(ipC, c.Addr().String()); err != nil {
				t.Fatal(err)
			}

			pkts := make([]*packet.Packet, 32)
			var bytes int64
			for i := range pkts {
				dst := ipB
				if i%2 == 1 {
					dst = ipC
				}
				pk := packet.NewUDP(ipA, dst, 5000, uint16(6000+i), 8*i)
				pk.Payload = make([]byte, 8*i)
				pkts[i] = pk
				bytes += int64(len(AppendPacket(nil, pk)))
			}
			flushFrames(t, a, pkts)

			wantCounter(t, a, "tx_datagrams", 32)
			wantCounter(t, a, "tx_bytes", bytes)
			wantCounter(t, a, "tx_socket_errors", 0)
			wantCounter(t, a, "tx_flushes", 1)
			waitCounter(t, b.Metrics().Counter("rx_datagrams"), 16, "b rx_datagrams")
			waitCounter(t, c.Metrics().Counter("rx_datagrams"), 16, "c rx_datagrams")
		})
	}
}

// A datagram the kernel rejects — here an IPv6 peer on an IPv4-bound
// socket — costs one tx_socket_errors; the frames queued before and
// after it in the same flush still go out.
func TestNodeFlushSkipsRejectedDatagram(t *testing.T) {
	ipV6 := packet.MustParseIP("10.0.0.6")
	ports := make(chan uint16, 32)
	a, _ := startPair(t, Config{Listen: "127.0.0.1:0"},
		Config{OnRaw: func(pk *packet.Packet) { ports <- pk.UDPHdr.DstPort }})
	if err := a.AddPeer(ipV6, "[::1]:9"); err != nil {
		t.Fatal(err)
	}

	const bad = 13
	pkts := make([]*packet.Packet, 32)
	for i := range pkts {
		dst := ipB
		if i == bad {
			dst = ipV6
		}
		pkts[i] = packet.NewUDP(ipA, dst, 5000, uint16(6000+i), 0)
	}
	flushFrames(t, a, pkts)

	wantCounter(t, a, "tx_socket_errors", 1)
	wantCounter(t, a, "tx_datagrams", 31)
	got := map[uint16]bool{}
	for len(got) < 31 {
		select {
		case port := <-ports:
			got[port] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of 31 frames delivered: %v", len(got), got)
		}
	}
	for i := range pkts {
		if port := uint16(6000 + i); got[port] != (i != bad) {
			t.Errorf("frame %d (port %d): delivered = %v", i, port, got[port])
		}
	}
}

// A node whose socket buffers are clamped to the kernel minimum still
// delivers a full flush of 1400-byte frames: a full send buffer parks
// the flush on the netpoller and it resumes where it stopped.
func TestNodeFlushTinySendBuffer(t *testing.T) {
	a, b := startPair(t, Config{ReadBuffer: 1}, Config{})

	pkts := make([]*packet.Packet, 32)
	for i := range pkts {
		pk := packet.NewUDP(ipA, ipB, 5000, uint16(6000+i), 1400)
		pk.Payload = make([]byte, 1400)
		pkts[i] = pk
	}
	flushFrames(t, a, pkts)

	wantCounter(t, a, "tx_datagrams", 32)
	wantCounter(t, a, "tx_socket_errors", 0)
	waitCounter(t, b.Metrics().Counter("rx_datagrams"), 32, "rx_datagrams")
}

// A steady-state flush allocates nothing: frames come from the buffer
// pool and the syscall arguments are preallocated on the node.
func TestNodeFlushZeroAllocs(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	n, err := Start(Config{IP: ipA, Peers: map[uint32]string{ipB: sink.LocalAddr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	pk := packet.NewUDP(ipA, ipB, 5000, 5001, 64)
	pk.Payload = make([]byte, 64)
	var allocs float64
	n.DoWait(func() {
		allocs = testing.AllocsPerRun(100, func() {
			for i := 0; i < n.cfg.Batch; i++ {
				n.Transmit(pk)
			}
		})
	})
	if allocs != 0 {
		t.Errorf("flush allocates %.1f allocs per %d frames, want 0", allocs, n.cfg.Batch)
	}
	if got := n.Metrics().Counter("tx_datagrams").Load(); got < int64(100*n.cfg.Batch) {
		t.Errorf("tx_datagrams = %d, want >= %d", got, 100*n.cfg.Batch)
	}
}

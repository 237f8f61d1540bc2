package udpnet

import (
	"container/heap"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"time"

	"eden/internal/enclave"
	"eden/internal/metrics"
	"eden/internal/packet"
	"eden/internal/trace"
	"eden/internal/transport"
)

// Config describes one udpnet node.
type Config struct {
	// Listen is the UDP address to bind ("127.0.0.1:9001"; an empty
	// string binds an ephemeral loopback port, useful in tests).
	Listen string
	// IP is the node's model address (packet.IP.Src on egress). Required.
	IP uint32
	// OS and NIC are the enclave attach points; either may be nil. The
	// enclaves' Clock should be wall-clock nanoseconds (time.Now
	// UnixNano), matching the node's clock.
	OS, NIC *enclave.Enclave
	// Transport tunes the node's transport stack.
	Transport transport.Options
	// Peers maps model IPs to UDP addresses ("10.0.0.2" -> "host:9002").
	// More peers can be added later with AddPeer.
	Peers map[uint32]string
	// OnRaw, when set, receives non-TCP packets that pass ingress. It runs
	// on the event loop; the packet and its payload are pooled and only
	// valid during the call — retain copies, never the pointers.
	OnRaw func(pkt *packet.Packet)
	// Tracer, when set, samples egress packets and stamps hop events
	// (tx, rx, deliver, drop) into its ring with the node's wall clock.
	// Trace ids travel in the frame codec, so a packet sampled here is
	// recorded by the receiving node's tracer too — seed the id spaces
	// apart with SeedIDs when tracing across processes. Nil disables
	// tracing at the cost of one pointer check per hop.
	Tracer *trace.Tracer

	// Batch bounds how many inbound datagrams (and pending ops) the event
	// loop drains per wakeup, and how many tx frames queue before an
	// inline flush (default 32).
	Batch int
	// InboundQueue is the reader-to-loop channel depth (default 1024).
	// When the loop falls behind, excess datagrams are counted and
	// dropped — the same discipline as a NIC ring.
	InboundQueue int
	// MaxDatagram sizes the pooled receive buffers and bounds encoded
	// frames (default 2048; frames are ~70 bytes + carried payload).
	MaxDatagram int
	// ReadBuffer is the socket receive buffer size hint in bytes
	// (default 1<<20). Best-effort; the kernel may clamp it.
	ReadBuffer int
}

func (c *Config) defaults() {
	if c.Batch == 0 {
		c.Batch = 32
	}
	if c.InboundQueue == 0 {
		c.InboundQueue = 1024
	}
	if c.MaxDatagram == 0 {
		c.MaxDatagram = 2048
	}
	if c.ReadBuffer == 0 {
		c.ReadBuffer = 1 << 20
	}
}

// Node runs one Eden end host over a real UDP socket: a transport.Stack
// above, the enclave.Chain attach points in between, and a datagram
// codec below, all driven by a single event-loop goroutine — the
// real-time analogue of the simulator's event loop. A second goroutine
// blocks in socket reads and feeds the loop through a bounded channel of
// pooled buffers.
//
// All node state (stack, chain, enclaves, timers) belongs to the loop
// goroutine. External callers reach it through Do/DoWait; transport
// callbacks (OnMessage, accept functions) already run on the loop and
// may use the stack directly, but must never call DoWait (the loop
// cannot wait for itself).
type Node struct {
	cfg   Config
	conn  *net.UDPConn
	addr  netip.AddrPort
	chain enclave.Chain
	stack *transport.Stack
	dec   Decoder

	peers map[uint32]netip.AddrPort

	// Monotonic wall clock: base UnixNano plus time.Since(start), so
	// Now() is immune to wall-clock steps while staying comparable
	// across processes to within NTP error.
	baseWall int64
	baseMono time.Time

	timers timerQueue
	tseq   uint64

	inbound chan frame
	ops     chan func()
	txq     []txFrame
	tx      txBatch

	quit     chan struct{}
	loopDone chan struct{}
	readDone chan struct{}

	bufs *bufPool
	pkts *pktPool

	reg *metrics.Registry
	ctr counters

	// name labels this node in metrics and trace events
	// ("udpnet.<ip>"), computed once at Start.
	name string
}

// frame is one received datagram in flight from the reader to the loop.
type frame struct {
	b *buf
	n int
}

// txFrame is one encoded datagram awaiting flush.
type txFrame struct {
	b   *buf
	enc []byte
	to  netip.AddrPort
}

type counters struct {
	rxDatagrams  *metrics.Counter
	rxBytes      *metrics.Counter
	rxWakes      *metrics.Counter
	rxDecodeErr  *metrics.Counter
	rxOverflow   *metrics.Counter
	rxSocketErr  *metrics.Counter
	rxRaw        *metrics.Counter
	txDatagrams  *metrics.Counter
	txBytes      *metrics.Counter
	txFlushes    *metrics.Counter
	txNoRoute    *metrics.Counter
	txSocketErr  *metrics.Counter
	verdictDrops *metrics.Counter
}

// Start binds the socket and launches the node's goroutines.
func Start(cfg Config) (*Node, error) {
	if cfg.IP == 0 {
		return nil, fmt.Errorf("udpnet: Config.IP is required")
	}
	cfg.defaults()
	listen := cfg.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("udpnet: resolve %s: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %s: %w", listen, err)
	}
	_ = conn.SetReadBuffer(cfg.ReadBuffer)
	_ = conn.SetWriteBuffer(cfg.ReadBuffer)

	name := "udpnet." + packet.IPString(cfg.IP)
	n := &Node{
		cfg:      cfg,
		name:     name,
		conn:     conn,
		addr:     conn.LocalAddr().(*net.UDPAddr).AddrPort(),
		peers:    map[uint32]netip.AddrPort{},
		baseWall: time.Now().UnixNano(),
		baseMono: time.Now(),
		inbound:  make(chan frame, cfg.InboundQueue),
		ops:      make(chan func(), cfg.InboundQueue),
		txq:      make([]txFrame, 0, cfg.Batch),
		quit:     make(chan struct{}),
		loopDone: make(chan struct{}),
		readDone: make(chan struct{}),
		reg:      metrics.NewRegistry(name),
	}
	for ip, addr := range cfg.Peers {
		ap, err := resolvePeer(addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("udpnet: peer %s=%s: %w", packet.IPString(ip), addr, err)
		}
		n.peers[ip] = ap
	}
	n.ctr = counters{
		rxDatagrams:  n.reg.Counter("rx_datagrams"),
		rxBytes:      n.reg.Counter("rx_bytes"),
		rxWakes:      n.reg.Counter("rx_wakes"),
		rxDecodeErr:  n.reg.Counter("rx_decode_errors"),
		rxOverflow:   n.reg.Counter("rx_overflow_drops"),
		rxSocketErr:  n.reg.Counter("rx_socket_errors"),
		rxRaw:        n.reg.Counter("rx_raw_delivered"),
		txDatagrams:  n.reg.Counter("tx_datagrams"),
		txBytes:      n.reg.Counter("tx_bytes"),
		txFlushes:    n.reg.Counter("tx_flushes"),
		txNoRoute:    n.reg.Counter("tx_no_route"),
		txSocketErr:  n.reg.Counter("tx_socket_errors"),
		verdictDrops: n.reg.Counter("verdict_drops"),
	}
	// Buffer pool capacity covers the inbound queue plus the frames the
	// loop and tx queue hold, so a full pipeline still recycles.
	n.bufs = newBufPool(cfg.MaxDatagram, cfg.InboundQueue+2*cfg.Batch,
		n.reg.Counter("pool_buf_allocs"), n.reg.Gauge("pool_buf_outstanding"))
	n.pkts = newPktPool(cfg.Batch,
		n.reg.Counter("pool_pkt_allocs"), n.reg.Gauge("pool_pkt_outstanding"))

	if err := n.initTx(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("udpnet: %w", err)
	}

	n.chain = enclave.Chain{OS: cfg.OS, NIC: cfg.NIC, Env: n}
	n.stack = transport.NewStack(n, cfg.Transport)

	go n.loop()
	go n.readLoop()
	return n, nil
}

// Addr returns the bound UDP address (useful with ephemeral listens).
func (n *Node) Addr() netip.AddrPort { return n.addr }

// IP implements transport.Env.
func (n *Node) IP() uint32 { return n.cfg.IP }

// Now implements transport.Env and enclave.ChainEnv: wall-clock
// nanoseconds advanced by the monotonic clock.
func (n *Node) Now() int64 {
	return n.baseWall + time.Since(n.baseMono).Nanoseconds()
}

// Metrics returns the node's registry (rx/tx, pool and drop counters).
func (n *Node) Metrics() *metrics.Registry { return n.reg }

// TransportMetrics snapshots the transport stack's counters through the
// event loop (the stack is loop-owned and unsynchronized). Safe to call
// from any goroutine, e.g. as a metrics.Set source for /metrics; after
// Close it reports an empty snapshot.
func (n *Node) TransportMetrics() metrics.RegistrySnapshot {
	var snap metrics.RegistrySnapshot
	if !n.DoWait(func() { snap = n.stack.MetricsSnapshot() }) {
		snap = metrics.RegistrySnapshot{Name: "transport." + packet.IPString(n.cfg.IP)}
	}
	return snap
}

// Do runs fn on the event loop, asynchronously. It reports false if the
// loop has exited (the fn will never run).
func (n *Node) Do(fn func()) bool {
	// Checked first because the ops channel is buffered: with the loop
	// gone, the send below could still succeed and report a false true.
	select {
	case <-n.loopDone:
		return false
	default:
	}
	select {
	case n.ops <- fn:
		return true
	case <-n.loopDone:
		return false
	}
}

// DoWait runs fn on the event loop and waits for it to finish. It
// reports false if the loop exited before running fn. Never call it
// from the loop itself (transport callbacks, OnRaw) — that deadlocks;
// loop-side code calls the stack directly instead.
func (n *Node) DoWait(fn func()) bool {
	done := make(chan struct{})
	if !n.Do(func() { fn(); close(done) }) {
		return false
	}
	select {
	case <-done:
		return true
	case <-n.loopDone:
		// The loop may have exited after running fn.
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// resolvePeer resolves a UDP address, unmapping IPv4-in-IPv6 forms
// (net.ResolveUDPAddr yields ::ffff:a.b.c.d, which an IPv4-bound socket
// refuses to send to).
func resolvePeer(addr string) (netip.AddrPort, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return netip.AddrPort{}, err
	}
	ap := ua.AddrPort()
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), nil
}

// AddPeer routes the model IP to a UDP address.
func (n *Node) AddPeer(ip uint32, addr string) error {
	ap, err := resolvePeer(addr)
	if err != nil {
		return fmt.Errorf("udpnet: peer %s=%s: %w", packet.IPString(ip), addr, err)
	}
	if !n.DoWait(func() { n.peers[ip] = ap }) {
		return net.ErrClosed
	}
	return nil
}

// Listen registers a transport accept callback for a local port. The
// callback runs on the event loop.
func (n *Node) Listen(port uint16, accept func(*transport.Conn)) {
	n.DoWait(func() { n.stack.Listen(port, accept) })
}

// Dial opens a transport connection to a peer's model address. The
// returned Conn is loop-owned: use it inside Do/DoWait closures (or
// transport callbacks, which already run on the loop). Returns nil if
// the ephemeral port range is exhausted or the node is closed.
func (n *Node) Dial(dst uint32, dstPort uint16) *transport.Conn {
	var c *transport.Conn
	n.DoWait(func() { c = n.stack.Dial(dst, dstPort) })
	return c
}

// Inject hands an app-built packet to the egress path (enclave chain,
// then the wire), like a raw socket send. Asynchronous: the packet is
// owned by the node until transmitted, which can be after Inject
// returns if an enclave rate queue defers it — don't reuse injected
// packets under shaping policies.
func (n *Node) Inject(pk *packet.Packet) bool {
	return n.Do(func() { n.Output(pk) })
}

// Close shuts the node down: stops both goroutines, closes the socket
// and aborts transport connections. Safe to call more than once.
func (n *Node) Close() error {
	select {
	case <-n.quit:
		<-n.loopDone
		<-n.readDone
		return nil
	default:
	}
	close(n.quit)
	n.conn.Close()
	<-n.loopDone
	<-n.readDone
	n.stack.CloseAll()
	return nil
}

// --- loop side -----------------------------------------------------

// Output implements transport.Env: egress packets enter the enclave
// chain. Loop goroutine only. Packets are offered to the tracer here —
// before the chain — so drops inside the chain are recorded too.
func (n *Node) Output(pk *packet.Packet) {
	n.cfg.Tracer.Sample(pk)
	n.chain.Egress(pk)
}

// Transmit implements enclave.ChainEnv: encode the packet into a pooled
// buffer and queue it; the queue flushes every loop iteration or when
// Batch frames accumulate.
func (n *Node) Transmit(pk *packet.Packet) {
	to, ok := n.peers[pk.IP.Dst]
	if !ok {
		n.ctr.txNoRoute.Inc()
		if n.cfg.Tracer.Traces(pk) {
			n.cfg.Tracer.Record(pk, n.Now(), trace.KindDrop, n.name, "no-route")
		}
		return
	}
	if n.cfg.Tracer.Traces(pk) {
		n.cfg.Tracer.Record(pk, n.Now(), trace.KindTx, n.name, "")
	}
	b := n.bufs.Get()
	enc := AppendPacket(b.b[:0], pk)
	n.txq = append(n.txq, txFrame{b: b, enc: enc, to: to})
	if len(n.txq) >= n.cfg.Batch {
		n.flushTx()
	}
}

// Deliver implements enclave.ChainEnv: TCP goes to the transport stack,
// everything else to OnRaw.
func (n *Node) Deliver(pk *packet.Packet) {
	if n.cfg.Tracer.Traces(pk) {
		n.cfg.Tracer.Record(pk, n.Now(), trace.KindDeliver, n.name, "")
	}
	if pk.IP.Proto == packet.ProtoTCP {
		n.stack.Deliver(pk)
		return
	}
	n.ctr.rxRaw.Inc()
	if n.cfg.OnRaw != nil {
		n.cfg.OnRaw(pk)
	}
}

// DropVerdict implements enclave.ChainEnv.
func (n *Node) DropVerdict(point string, pk *packet.Packet) {
	n.ctr.verdictDrops.Inc()
	if n.cfg.Tracer.Traces(pk) {
		n.cfg.Tracer.Record(pk, n.Now(), trace.KindDrop, n.name, point)
	}
}

// Schedule implements transport.Env and enclave.ChainEnv: fn runs on
// the event loop at absolute time at (clamped to now if past).
func (n *Node) Schedule(at int64, fn func()) {
	n.tseq++
	heap.Push(&n.timers, timerEv{at: at, seq: n.tseq, fn: fn})
}

// flushTx writes the tx queue to the socket (writeTx: one sendmmsg per
// flush on Linux, one send per datagram elsewhere) and recycles its
// buffers.
func (n *Node) flushTx() {
	if len(n.txq) == 0 {
		return
	}
	n.writeTx()
	for i := range n.txq {
		f := &n.txq[i]
		n.bufs.Put(f.b)
		f.b, f.enc = nil, nil
	}
	n.ctr.txFlushes.Inc()
	n.txq = n.txq[:0]
}

// runTimers fires every due timer. Fired fns may push new timers.
func (n *Node) runTimers() {
	for len(n.timers) > 0 && n.timers[0].at <= n.Now() {
		ev := heap.Pop(&n.timers).(timerEv)
		ev.fn()
	}
}

// handleFrame decodes one datagram and runs it through ingress. The
// pooled buffer and packet are released before returning: the stack
// copies what it keeps (metadata travels by value), and OnRaw receivers
// are documented to copy.
func (n *Node) handleFrame(fr frame) {
	n.ctr.rxDatagrams.Inc()
	n.ctr.rxBytes.Add(int64(fr.n))
	pk := n.pkts.Get()
	if err := n.dec.DecodePacket(fr.b.b[:fr.n], pk); err != nil {
		n.ctr.rxDecodeErr.Inc()
	} else {
		if n.cfg.Tracer.Traces(pk) {
			n.cfg.Tracer.Record(pk, n.Now(), trace.KindRx, n.name, "")
		}
		n.chain.Ingress(pk)
	}
	n.pkts.Put(pk)
	n.bufs.Put(fr.b)
}

func (n *Node) loop() {
	defer close(n.loopDone)
	wake := time.NewTimer(time.Hour)
	defer wake.Stop()
	for {
		n.runTimers()
		n.flushTx()

		var wakeC <-chan time.Time
		if len(n.timers) > 0 {
			d := time.Duration(n.timers[0].at - n.Now())
			if d < 0 {
				d = 0
			}
			if !wake.Stop() {
				select {
				case <-wake.C:
				default:
				}
			}
			wake.Reset(d)
			wakeC = wake.C
		}

		select {
		case <-n.quit:
			n.flushTx()
			return
		case fn := <-n.ops:
			fn()
			n.drainOps()
		case fr := <-n.inbound:
			n.ctr.rxWakes.Inc()
			n.handleFrame(fr)
			n.drainInbound()
		case <-wakeC:
		}
	}
}

// drainOps runs up to Batch-1 more pending ops without blocking.
func (n *Node) drainOps() {
	for i := 1; i < n.cfg.Batch; i++ {
		select {
		case fn := <-n.ops:
			fn()
		default:
			return
		}
	}
}

// drainInbound handles up to Batch-1 more queued datagrams without
// blocking — the batching that amortizes loop wakeups under load.
func (n *Node) drainInbound() {
	for i := 1; i < n.cfg.Batch; i++ {
		select {
		case fr := <-n.inbound:
			n.handleFrame(fr)
		default:
			return
		}
	}
}

// readLoop blocks in socket reads and feeds the event loop. It owns no
// node state beyond the pools and atomic counters (both goroutine-safe).
func (n *Node) readLoop() {
	defer close(n.readDone)
	for {
		b := n.bufs.Get()
		nb, _, err := n.conn.ReadFromUDPAddrPort(b.b)
		if err != nil {
			n.bufs.Put(b)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			select {
			case <-n.quit:
				return
			default:
			}
			n.ctr.rxSocketErr.Inc()
			continue
		}
		select {
		case n.inbound <- frame{b: b, n: nb}:
		default:
			// Loop is behind and the queue is full: drop at the edge,
			// like a NIC ring overflow, rather than blocking reads.
			n.ctr.rxOverflow.Inc()
			n.bufs.Put(b)
		}
	}
}

// --- timer heap ----------------------------------------------------

// timerEv is one scheduled callback; seq breaks ties so equal-deadline
// timers fire in Schedule order, matching the simulator's event heap.
type timerEv struct {
	at  int64
	seq uint64
	fn  func()
}

type timerQueue []timerEv

func (q timerQueue) Len() int { return len(q) }
func (q timerQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q timerQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *timerQueue) Push(x any)   { *q = append(*q, x.(timerEv)) }
func (q *timerQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = timerEv{}
	*q = old[:n-1]
	return ev
}

package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eden/internal/compiler"
	"eden/internal/enclave"
	"eden/internal/funcs"
	"eden/internal/metrics"
	"eden/internal/packet"
	"eden/internal/trace"
	"eden/internal/udpnet"
)

// udp-raw: two udpnet nodes exchange raw packets over 127.0.0.1. The
// sender's OS enclave runs PIAS on egress; the receiver's runs a stateless
// port firewall on ingress.
const (
	udpFlows       = 64
	udpBlocked     = 4    // flows addressed to the firewalled port
	udpPktsPerFlow = 1024 // plan packets per flow; the plan repeats
	udpMaxMsgPkts  = 48   // message lengths are uniform in [1, 48] packets
	udpWindow      = 128  // in-flight cap, below the receiver's inbound queue
	udpBurst       = 32
	udpSmall       = 64   // phase 1 payload bytes
	udpLarge       = 1400 // phase 2 payload bytes
	udpHdrBytes    = 42   // Ethernet + IPv4 + UDP, what PIAS counts before tagging
	udpFwPort      = 2222
	udpPingPort    = 7100
	udpPingSrcPort = 9100
)

// udpPIASThresholds/Prios are PIAS's byte thresholds and the priority
// used at or below each; past the last threshold the priority is 0.
var (
	udpPIASThresholds = []int64{1000, 3000}
	udpPIASPrios      = []int64{6, 3}
)

// firewallSrc drops every packet addressed to one port.
const firewallSrc = `
global blocked : int = 0

fun (packet, msg, _global) ->
    if packet.dst_port = _global.blocked then packet.drop <- 1
`

// piasModel is the priority PIAS must give a packet whose message has
// sent cum bytes including this packet.
func piasModel(cum int64, thresholds, prios []int64) uint8 {
	for i, t := range thresholds {
		if cum <= t {
			return uint8(prios[i] & 7)
		}
	}
	return 0
}

// udpPlanEntry is one packet of the repeating send plan.
type udpPlanEntry struct {
	flow uint8
	last bool   // last packet of its message
	pos  uint16 // packet index within its message
	msg  uint32 // message index within the plan
}

type udpPlan struct {
	entries []udpPlanEntry
	msgs    uint32
	blocked [udpFlows]bool
}

// newUDPPlan interleaves every flow's messages in a seeded random order;
// each flow's packets stay in order and every message ends inside the
// plan, so the plan repeats with fresh message ids.
func newUDPPlan(seed int64) *udpPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &udpPlan{}
	for _, f := range rng.Perm(udpFlows)[:udpBlocked] {
		p.blocked[f] = true
	}
	type flowMsgs struct{ lens []int }
	flows := make([]flowMsgs, udpFlows)
	for f := range flows {
		left := udpPktsPerFlow
		for left > 0 {
			n := 1 + rng.Intn(udpMaxMsgPkts)
			if n > left {
				n = left
			}
			flows[f].lens = append(flows[f].lens, n)
			left -= n
		}
	}
	type cursor struct {
		msg, pos int
		id       uint32
	}
	cur := make([]cursor, udpFlows)
	for f := range cur {
		cur[f].id = p.msgs
		p.msgs++
	}
	live := make([]int, udpFlows)
	for f := range live {
		live[f] = f
	}
	for len(live) > 0 {
		i := rng.Intn(len(live))
		f := live[i]
		c := &cur[f]
		n := flows[f].lens[c.msg]
		p.entries = append(p.entries, udpPlanEntry{flow: uint8(f), pos: uint16(c.pos), last: c.pos == n-1, msg: c.id})
		c.pos++
		if c.pos == n {
			c.msg, c.pos = c.msg+1, 0
			if c.msg == len(flows[f].lens) {
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			c.id = p.msgs
			p.msgs++
		}
	}
	return p
}

// msgID is the message id of plan packet seq: each pass of the plan
// gets fresh ids.
func (p *udpPlan) msgID(seq uint64) uint64 {
	cycle := seq / uint64(len(p.entries))
	return cycle*uint64(p.msgs) + uint64(p.entries[seq%uint64(len(p.entries))].msg) + 1
}

func udpDstPort(p *udpPlan, flow int) uint16 {
	if p.blocked[flow] {
		return udpFwPort
	}
	return 7000 + uint16(flow)
}

var udpClasses = func() [udpFlows]string {
	var c [udpFlows]string
	for i := range c {
		c[i] = fmt.Sprintf("udp.f%02d", i)
	}
	return c
}()

type udpFixture struct {
	plan       *udpPlan
	ipA, ipB   uint32
	send, recv *udpnet.Node
	sendOS     *enclave.Enclave
	recvOS     *enclave.Enclave
	tracer     *trace.Tracer

	// Receiver-side tallies, written on the receiver's event loop.
	delivered atomic.Int64
	drops     *metrics.Counter // the receiver's verdict drops
	// space wakes the sender once the done count reaches waitDone
	// (0: the sender is not waiting).
	space    chan struct{}
	waitDone atomic.Int64
	bad      atomic.Int64
	badMu    sync.Mutex
	badMsg   string

	// Ping-pong: the sender's OnRaw hands replies back here.
	pong     chan uint64
	pingSent int64 // pings sent so far on this fixture (the flow's PIAS byte count)
	pingPkt  *packet.Packet
	replyPkt *packet.Packet
	replyBuf []byte
	pingBad  atomic.Int64
	pingPrio uint8 // the PCP the outstanding ping must arrive with

	// encoded is one past the last sequence number the sender's loop has
	// encoded: ring slots are rewritten only below it, which orders the
	// loop's reads before the generator's next writes.
	encoded atomic.Uint64

	// Sender side, owned by the generating goroutine.
	seq     uint64
	sentEnd uint64 // one past the last sequence number handed to the loop
	sent    int64
	fwSent  int64
	ring    []*packet.Packet
	payload [][]byte
}

func setupUDPRaw(seed int64, traced bool) (fixture, error) {
	f := &udpFixture{
		plan:  newUDPPlan(seed),
		ipA:   packet.MustParseIP("10.0.0.1"),
		ipB:   packet.MustParseIP("10.0.0.2"),
		pong:  make(chan uint64, 1),
		space: make(chan struct{}, 1),
	}
	clock := func() int64 { return time.Now().UnixNano() }
	if traced {
		f.tracer = trace.NewTracerEvery(1<<14, 64)
	}
	f.sendOS = enclave.New(enclave.Config{Name: "sender-os", Platform: "os", Clock: clock, Tracer: f.tracer})
	f.recvOS = enclave.New(enclave.Config{Name: "receiver-os", Platform: "os", Clock: clock, Tracer: f.tracer})
	if err := funcs.InstallPIAS(f.sendOS, "sched", "udp.*", udpPIASThresholds, udpPIASPrios); err != nil {
		return nil, err
	}
	if err := installFirewall(f.recvOS, udpFwPort); err != nil {
		return nil, err
	}
	var err error
	f.recv, err = udpnet.Start(udpnet.Config{IP: f.ipB, OS: f.recvOS, OnRaw: f.onRecv, Tracer: f.tracer})
	if err != nil {
		return nil, err
	}
	f.send, err = udpnet.Start(udpnet.Config{IP: f.ipA, OS: f.sendOS, OnRaw: f.onPong, Tracer: f.tracer})
	if err != nil {
		f.recv.Close()
		return nil, err
	}
	f.drops = f.recv.Metrics().Counter("verdict_drops")
	if err := f.send.AddPeer(f.ipB, f.recv.Addr().String()); err != nil {
		f.close()
		return nil, err
	}
	if err := f.recv.AddPeer(f.ipA, f.send.Addr().String()); err != nil {
		f.close()
		return nil, err
	}
	f.initRing()
	f.pingPkt = &packet.Packet{}
	f.replyPkt = &packet.Packet{}
	// Warm-up: pools, intern tables, flow state and the socket path.
	o := &outcome{}
	f.stream(o, nil, udpSmall, 4*udpWindow, time.Time{})
	f.pingPong(o, nil, 64, time.Time{})
	if len(o.errs) > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up: %s", o.errs[0])
	}
	return f, nil
}

func installFirewall(e *enclave.Enclave, port int64) error {
	fn, err := compiler.Compile("port_firewall", firewallSrc)
	if err != nil {
		return err
	}
	if err := e.InstallFunc(fn); err != nil {
		return err
	}
	if err := e.UpdateGlobal("port_firewall", "blocked", port); err != nil {
		return err
	}
	if _, err := e.CreateTable(enclave.Ingress, "firewall"); err != nil {
		return err
	}
	return e.AddRule(enclave.Ingress, "firewall", enclave.Rule{Pattern: "*", Func: "port_firewall"})
}

func (f *udpFixture) close() {
	f.send.Close()
	f.recv.Close()
}

func (f *udpFixture) noteBad(format string, args ...any) {
	if f.bad.Add(1) == 1 {
		f.badMu.Lock()
		f.badMsg = fmt.Sprintf(format, args...)
		f.badMu.Unlock()
	}
}

// onRecv runs on the receiver's event loop for every delivered packet:
// stream packets are checked against the plan, pings are echoed.
func (f *udpFixture) onRecv(pk *packet.Packet) {
	if pk.UDPHdr.DstPort == udpPingPort {
		f.echo(pk)
		return
	}
	f.delivered.Add(1)
	if err := checkUDPPacket(f.plan, pk); err != "" {
		f.noteBad("%s", err)
	}
	if need := f.waitDone.Load(); need != 0 && f.done() >= need && f.waitDone.CompareAndSwap(need, 0) {
		select {
		case f.space <- struct{}{}:
		default:
		}
	}
}

// checkUDPPacket checks one delivered stream packet against what the
// plan says was sent: sequence, class, message id, PIAS priority and
// that the firewall let it through. It returns "" when all hold.
func checkUDPPacket(plan *udpPlan, pk *packet.Packet) string {
	n := len(pk.Payload)
	if (n != udpSmall && n != udpLarge) || pk.PayloadLen != n {
		return fmt.Sprintf("payload length %d (declared %d)", n, pk.PayloadLen)
	}
	seq := binary.LittleEndian.Uint64(pk.Payload)
	if pk.Payload[n-1] != byte(seq) {
		return fmt.Sprintf("seq %d: payload corrupted", seq)
	}
	e := plan.entries[seq%uint64(len(plan.entries))]
	if pk.Meta.Class != udpClasses[e.flow] {
		return fmt.Sprintf("seq %d: class %q, sent %q", seq, pk.Meta.Class, udpClasses[e.flow])
	}
	if want := plan.msgID(seq); pk.Meta.MsgID != want {
		return fmt.Sprintf("seq %d: message id %d, sent %d", seq, pk.Meta.MsgID, want)
	}
	if plan.blocked[e.flow] || pk.UDPHdr.DstPort == udpFwPort {
		return fmt.Sprintf("seq %d: delivered to the firewalled port", seq)
	}
	cum := int64(e.pos+1) * int64(udpHdrBytes+n)
	if want := piasModel(cum, udpPIASThresholds, udpPIASPrios); !pk.HasVLAN || pk.VLAN.PCP != want {
		return fmt.Sprintf("seq %d: PIAS priority %d (tagged %v), want %d at %d message bytes",
			seq, pk.VLAN.PCP, pk.HasVLAN, want, cum)
	}
	return ""
}

// checkUDPCounts checks packet conservation: every packet sent was
// delivered or dropped by the firewall, and the firewall dropped exactly
// the packets addressed to its port.
func checkUDPCounts(sent, delivered, drops, toFirewall int64) string {
	if delivered+drops != sent {
		return fmt.Sprintf("delivered %d + firewall drops %d != sent %d", delivered, drops, sent)
	}
	if drops != toFirewall {
		return fmt.Sprintf("firewall dropped %d packets, %d were addressed to port %d", drops, toFirewall, udpFwPort)
	}
	return ""
}

// echo answers a ping from the receiver's event loop; the reply carries
// the request's payload and the priority the request arrived with.
func (f *udpFixture) echo(pk *packet.Packet) {
	r := f.replyPkt
	*r = *packet.NewUDP(f.ipB, f.ipA, udpPingPort, udpPingSrcPort, len(pk.Payload))
	r.Payload = append(f.replyBuf[:0], pk.Payload...)
	f.replyBuf = r.Payload
	if len(r.Payload) > 8 {
		r.Payload[8] = pk.VLAN.PCP
	}
	r.Meta.Class = "udp.pong"
	r.Meta.TraceID = pk.Meta.TraceID
	f.recv.Output(r)
}

// onPong runs on the sender's event loop for each echo reply.
func (f *udpFixture) onPong(pk *packet.Packet) {
	if len(pk.Payload) < 9 {
		f.pingBad.Add(1)
		return
	}
	seq := binary.LittleEndian.Uint64(pk.Payload)
	if pk.Payload[8] != f.pingPrio || pk.Payload[len(pk.Payload)-1] != byte(seq) {
		f.pingBad.Add(1)
	}
	select {
	case f.pong <- seq:
	default:
		f.pingBad.Add(1) // a reply nobody is waiting for
	}
}

// done counts stream packets delivered or dropped by the firewall.
func (f *udpFixture) done() int64 {
	return f.delivered.Load() + f.drops.Load()
}

// resetTimer re-arms t for d, draining a fire nobody received.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// initRing allocates the sender's packet ring: twice the window, so a
// slot is rewritten only after its packet landed.
func (f *udpFixture) initRing() {
	f.ring = make([]*packet.Packet, 2*udpWindow)
	f.payload = make([][]byte, len(f.ring))
	for i := range f.ring {
		f.ring[i] = &packet.Packet{}
		f.payload[i] = make([]byte, udpLarge)
	}
}

// fill rewrites ring slot seq%len for plan packet seq.
func (f *udpFixture) fill(seq uint64, size int) *packet.Packet {
	slot := seq % uint64(len(f.ring))
	e := f.plan.entries[seq%uint64(len(f.plan.entries))]
	pl := f.payload[slot][:size]
	binary.LittleEndian.PutUint64(pl, seq)
	pl[size-1] = byte(seq)
	pk := f.ring[slot]
	*pk = packet.Packet{
		Eth: packet.Ethernet{EtherType: packet.EtherTypeIPv4},
		IP: packet.IPv4{Src: f.ipA, Dst: f.ipB, Proto: packet.ProtoUDP, TTL: 64,
			TotalLength: uint16(28 + size)},
		UDPHdr:     packet.UDP{SrcPort: 9000 + uint16(e.flow), DstPort: udpDstPort(f.plan, int(e.flow)), Length: uint16(8 + size)},
		PayloadLen: size,
		Payload:    pl,
	}
	pk.Meta.Class = udpClasses[e.flow]
	pk.Meta.MsgID = f.plan.msgID(seq)
	pk.ResetControl()
	if f.plan.blocked[e.flow] {
		f.fwSent++
	}
	return pk
}

// stream sends a windowed stream of size-byte payloads until count
// packets (count > 0) or the deadline, and returns packets delivered and
// the elapsed time until the last one landed. It starts at a plan
// boundary so no message mixes payload sizes.
func (f *udpFixture) stream(o *outcome, spans *spanLog, size, count int, deadline time.Time) (delivered int64, elapsed time.Duration) {
	L := uint64(len(f.plan.entries))
	if f.seq%L != 0 {
		f.seq += L - f.seq%L
	}
	startDone, startDelivered := f.done(), f.delivered.Load()
	var sent int64
	t0 := time.Now()
	lastProgress, lastDone := t0, startDone
	poll := time.NewTimer(time.Hour)
	defer poll.Stop()
	for {
		if count > 0 && sent >= int64(count) || count == 0 && !time.Now().Before(deadline) {
			break
		}
		done := f.done()
		inflight := sent - (done - startDone)
		if inflight > udpWindow-udpBurst {
			if done != lastDone {
				lastProgress, lastDone = time.Now(), done
			} else if time.Since(lastProgress) > 2*time.Second {
				o.failf("udp stream stalled: %d packets in flight for 2s", inflight)
				return 0, time.Since(t0)
			}
			// Sleep until the receiver has room for a burst again; the
			// poll covers a window whose tail the firewall dropped.
			need := startDone + sent - (udpWindow - udpBurst)
			f.waitDone.Store(need)
			if f.done() < need {
				resetTimer(poll, time.Millisecond)
				select {
				case <-f.space:
				case <-poll.C:
				}
			}
			f.waitDone.Store(0)
			continue
		}
		// The slots this burst rewrites were last used a ring ago; their
		// packets landed long since, so this wait never spins in practice.
		need := f.sentEnd
		if f.seq+udpBurst < need+uint64(len(f.ring)) && f.seq+udpBurst >= uint64(len(f.ring)) {
			need = f.seq + udpBurst - uint64(len(f.ring))
		}
		for f.encoded.Load() < need {
			runtime.Gosched()
		}
		burst := make([]*packet.Packet, udpBurst)
		for i := range burst {
			burst[i] = f.fill(f.seq, size)
			f.seq++
		}
		ends := make([]uint64, 0, 4)
		for i := range burst {
			e := f.plan.entries[(f.seq-udpBurst+uint64(i))%L]
			if e.last {
				ends = append(ends, burst[i].Meta.MsgID)
			}
		}
		end := f.seq
		f.sentEnd = end
		_, sp := spans.root("udpnet.Node.Do(stream burst)")
		f.send.Do(func() {
			for _, pk := range burst {
				f.send.Output(pk)
			}
			f.encoded.Store(end)
			// The stage ends each message after its last packet.
			for _, id := range ends {
				f.sendOS.EndMessage(id)
			}
		})
		spans.end(sp)
		sent += udpBurst
	}
	f.sent += sent
	// Drain: every packet is delivered or dropped by the firewall.
	dl := time.Now().Add(3 * time.Second)
	for f.done()-startDone < sent {
		if time.Now().After(dl) {
			o.failf("udp stream: %d of %d packets neither delivered nor dropped", sent-(f.done()-startDone), sent)
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	return f.delivered.Load() - startDelivered, time.Since(t0)
}

// pingPong sends count pings (count > 0) or pings until the deadline,
// one outstanding, and returns the round-trip times in microseconds.
func (f *udpFixture) pingPong(o *outcome, spans *spanLog, count int, deadline time.Time) []float64 {
	var rtts []float64
	// Pings reuse ring slot 0's payload; wait until the stream's packets
	// are all encoded.
	for f.encoded.Load() < f.sentEnd {
		runtime.Gosched()
	}
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for i := 0; ; i++ {
		if count > 0 && i >= count || count == 0 && !time.Now().Before(deadline) {
			break
		}
		seq := uint64(f.pingSent)
		f.pingSent++
		// The ping flow is one enclave-classified message, so PIAS sees
		// its bytes grow by one packet per ping.
		f.pingPrio = piasModel(f.pingSent*(udpHdrBytes+udpSmall), udpPIASThresholds, udpPIASPrios)
		pk := f.pingPkt
		*pk = *packet.NewUDP(f.ipA, f.ipB, udpPingSrcPort, udpPingPort, udpSmall)
		pk.Payload = f.payload[0][:udpSmall]
		binary.LittleEndian.PutUint64(pk.Payload, seq)
		pk.Payload[udpSmall-1] = byte(seq)
		pk.Meta.Class = "udp.ping"
		resetTimer(timeout, 2*time.Second)
		_, sp := spans.root("ping round trip")
		t0 := time.Now()
		f.send.Do(func() { f.send.Output(pk) })
		select {
		case got := <-f.pong:
			rtts = append(rtts, float64(time.Since(t0).Nanoseconds())/1e3)
			if got != seq {
				o.failf("echo reply for ping %d answered ping %d", seq, got)
			}
		case <-timeout.C:
			o.failf("ping %d: no reply in 2s", seq)
			return rtts
		}
		spans.end(sp)
	}
	if n := f.pingBad.Swap(0); n > 0 {
		o.failf("%d echo replies did not match their requests", n)
	}
	return rtts
}

// run interleaves the three phases in one-second rounds (40% 64-byte
// stream, 30% 1400-byte stream, 30% ping-pong) and reports the median
// round, so a burst of noise moves one round, not the figure.
func (f *udpFixture) run(rc *runCtx) *outcome {
	o := &outcome{}
	startSent := f.sent
	startDrops := f.recv.Metrics().Counter("verdict_drops").Load()
	startFw, startDelivered := f.fwSent, f.delivered.Load()

	rounds := int(rc.dur / time.Second)
	if rounds < 1 {
		rounds = 1
	}
	slice := rc.dur / time.Duration(rounds)
	var pps, cpu, mbps, rttP50 []float64
	var rtts []float64
	for r := 0; r < rounds && len(o.errs) == 0; r++ {
		u0, s0 := cpuTimes()
		small, el := f.stream(o, rc.spans, udpSmall, 0, time.Now().Add(slice*4/10))
		u1, s1 := cpuTimes()
		pps = append(pps, float64(small)/el.Seconds())
		cpu = append(cpu, float64((u1-u0+s1-s0).Nanoseconds())/1e3/float64(small))
		large, el := f.stream(o, rc.spans, udpLarge, 0, time.Now().Add(slice*3/10))
		mbps = append(mbps, float64(large)*udpLarge*8/el.Seconds()/1e6)
		rt := f.pingPong(o, rc.spans, 0, time.Now().Add(slice*3/10))
		rttP50 = append(rttP50, median(rt))
		rtts = append(rtts, rt...)
	}

	sent := f.sent - startSent
	drops := f.recv.Metrics().Counter("verdict_drops").Load() - startDrops
	delivered := f.delivered.Load() - startDelivered
	if err := checkUDPCounts(sent, delivered, drops, f.fwSent-startFw); err != "" {
		o.failf("%s", err)
	}
	if n := f.bad.Load(); n > 0 {
		f.badMu.Lock()
		o.failf("%d delivered packets wrong, first: %s", n, f.badMsg)
		f.badMu.Unlock()
	}
	if n := f.recv.Metrics().Counter("rx_decode_errors").Load(); n > 0 {
		o.failf("%d frames failed to decode", n)
	}

	o.attempted = sent + int64(len(rtts))
	o.opsPerSec = median(pps)
	o.cpuPerOpUs = median(cpu)
	o.latencyUs = median(rttP50)
	o.addRef("udp_pkts_per_s", o.opsPerSec, "pkts/s", 0)
	o.addRef("udp_mtu_mbps", median(mbps), "Mbit/s", 0)
	o.addRef("udp_rtt_us_p50", median(rtts), "us", len(rtts))
	o.addRef("udp_rtt_us_p99", quantile(rtts, 0.99), "us", len(rtts))
	return o
}

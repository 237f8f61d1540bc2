package funcs

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"eden/internal/enclave"
	"eden/internal/packet"
)

func newEnclave(seed int64) *enclave.Enclave {
	var now int64
	rng := rand.New(rand.NewSource(seed))
	return enclave.New(enclave.Config{
		Name:  "t",
		Clock: func() int64 { now++; return now },
		Rand:  rng.Uint64,
	})
}

func classedPkt(payload int, class string, msgID uint64) *packet.Packet {
	p := packet.New(0x0a000001, 0x0a000002, 1234, 80, payload)
	p.Meta.Class = class
	p.Meta.MsgID = msgID
	return p
}

func TestAllSourcesCompile(t *testing.T) {
	for name := range Sources {
		if _, err := Compile(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := Compile("nonexistent"); err == nil {
		t.Error("unknown function compiled")
	}
}

func TestWCMPDistribution(t *testing.T) {
	e := newEnclave(1)
	// 10:1 split between labels 100 and 200 (the Figure 1 scenario).
	if err := InstallWCMP(e, "lb", "*", []int64{100, 200}, []int64{10, 1}); err != nil {
		t.Fatal(err)
	}
	counts := map[uint16]int{}
	const n = 22000
	for i := 0; i < n; i++ {
		p := classedPkt(1400, "x.y.z", 1)
		e.Process(enclave.Egress, p, 0)
		if !p.HasVLAN {
			t.Fatal("no path label")
		}
		counts[p.VLAN.VID]++
	}
	frac := float64(counts[100]) / n
	if frac < 0.89 || frac > 0.93 {
		t.Errorf("label 100 fraction = %.3f, want ~10/11=0.909", frac)
	}
	if counts[100]+counts[200] != n {
		t.Errorf("unexpected labels: %v", counts)
	}
}

func TestWCMPEqualWeightsIsECMP(t *testing.T) {
	e := newEnclave(2)
	if err := InstallWCMP(e, "lb", "*", []int64{1, 2}, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	counts := map[uint16]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		p := classedPkt(1400, "x.y.z", 1)
		e.Process(enclave.Egress, p, 0)
		counts[p.VLAN.VID]++
	}
	frac := float64(counts[1]) / n
	if frac < 0.47 || frac > 0.53 {
		t.Errorf("equal-weight fraction = %.3f, want ~0.5", frac)
	}
}

func TestMessageWCMPStablePerMessage(t *testing.T) {
	e := newEnclave(3)
	if err := InstallMessageWCMP(e, "lb", "*", []int64{100, 200}, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	// All packets of one message share a path.
	labelOf := func(msgID uint64) uint16 {
		var vid uint16
		for i := 0; i < 20; i++ {
			p := classedPkt(1400, "x.y.z", msgID)
			e.Process(enclave.Egress, p, 0)
			if i == 0 {
				vid = p.VLAN.VID
			} else if p.VLAN.VID != vid {
				t.Fatalf("message %d changed path: %d -> %d", msgID, vid, p.VLAN.VID)
			}
		}
		return vid
	}
	seen := map[uint16]bool{}
	for m := uint64(1); m <= 64; m++ {
		seen[labelOf(m)] = true
	}
	if !seen[100] || !seen[200] {
		t.Errorf("messages never spread over both paths: %v", seen)
	}
}

// With Config.Rand unset each VM draws from its own generator, and the
// enclave pools VMs in a sync.Pool that GC empties. Message-WCMP draws
// must keep following the weights across GCs: VMs made after a GC start
// from fresh seeds rather than replaying one fixed sequence. A batch of
// 8 messages cannot match a 1:2 split (k/8 is never within 0.03 of 1/3),
// so a replayed sequence fails the share check.
func TestMessageWCMPWeightsSurviveGC(t *testing.T) {
	var now int64
	e := enclave.New(enclave.Config{Name: "t", Clock: func() int64 { now++; return now }})
	if err := InstallMessageWCMP(e, "lb", "*", []int64{100, 200}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 500, 8
	counts := map[uint16]int{}
	msgID := uint64(0)
	for b := 0; b < batches; b++ {
		// Two cycles: the first only moves pooled VMs to the victim
		// cache, the second drops them.
		runtime.GC()
		runtime.GC()
		for i := 0; i < perBatch; i++ {
			msgID++
			p := classedPkt(1400, "x.y.z", msgID)
			e.Process(enclave.Egress, p, now)
			counts[p.VLAN.VID]++
		}
	}
	for label, weight := range map[uint16]float64{100: 1.0 / 3, 200: 2.0 / 3} {
		share := float64(counts[label]) / (batches * perBatch)
		if math.Abs(share-weight) > 0.03 {
			t.Errorf("label %d carried %.3f of messages, weight %.3f (counts %v)", label, share, weight, counts)
		}
	}
}

func TestFlowECMPStable(t *testing.T) {
	e := newEnclave(4)
	if err := InstallFlowECMP(e, "lb", "*", []int64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	label := func(srcPort uint16) uint16 {
		p := packet.New(1, 2, srcPort, 80, 100)
		p.Meta.Class = "x.y.z"
		p.Meta.MsgID = uint64(srcPort)
		e.Process(enclave.Egress, p, 0)
		return p.VLAN.VID
	}
	seen := map[uint16]bool{}
	for sp := uint16(1); sp <= 200; sp++ {
		l1 := label(sp)
		if l2 := label(sp); l1 != l2 {
			t.Fatalf("flow %d not stable: %d vs %d", sp, l1, l2)
		}
		seen[l1] = true
	}
	if len(seen) != 3 {
		t.Errorf("flows used %d labels, want 3", len(seen))
	}
}

func TestPIASDemotion(t *testing.T) {
	e := newEnclave(5)
	if err := InstallPIAS(e, "sched", "*", []int64{10 * 1024, 1024 * 1024}, []int64{7, 5}); err != nil {
		t.Fatal(err)
	}
	var last int64 = 8
	demotions := []int64{}
	for sent := 0; sent < 2_000_000; sent += 1460 {
		p := classedPkt(1406, "a.b.c", 9) // 1460B on wire
		e.Process(enclave.Egress, p, 0)
		prio := p.Get(packet.FieldPriority)
		if prio != last {
			demotions = append(demotions, prio)
			last = prio
		}
	}
	if len(demotions) != 3 || demotions[0] != 7 || demotions[1] != 5 || demotions[2] != 0 {
		t.Errorf("priority sequence = %v, want [7 5 0]", demotions)
	}
}

func TestSFFFixedPriority(t *testing.T) {
	e := newEnclave(6)
	if err := InstallSFF(e, "sched", "*", []int64{10 * 1024, 1024 * 1024}, []int64{7, 5}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		size int64
		want int64
	}{
		{5 * 1024, 7},         // small flow: highest priority throughout
		{500 * 1024, 5},       // intermediate
		{50 * 1024 * 1024, 0}, // background
		{0, 0},                // unknown size
	}
	for _, c := range cases {
		for i := 0; i < 5; i++ { // priority must not change over time
			p := classedPkt(1400, "a.b.c", uint64(c.size+1))
			p.Meta.MsgSize = c.size
			e.Process(enclave.Egress, p, 0)
			if got := p.Get(packet.FieldPriority); got != c.want {
				t.Errorf("size %d pkt %d: priority %d, want %d", c.size, i, got, c.want)
			}
		}
	}
}

func TestPulsarChargesReadsBySize(t *testing.T) {
	e := newEnclave(7)
	q0 := e.AddQueue(8*1_000_000_000, 0) // tenant 0: 1 GB/s
	q1 := e.AddQueue(8*1_000_000_000, 0) // tenant 1
	if err := InstallPulsar(e, "qos", "*", []int64{int64(q0), int64(q1)}); err != nil {
		t.Fatal(err)
	}
	// READ (type 1): tiny packet charged 64KB.
	read := classedPkt(100, "stor.rs.READ", 1)
	read.Meta.Tenant = 0
	read.Meta.MsgType = 1
	read.Meta.MsgSize = 64 * 1024
	v := e.Process(enclave.Egress, read, 0)
	if !v.Queued || v.SendAt != 64*1024 {
		t.Errorf("read verdict = %+v, want queued with 65536ns pacing", v)
	}
	// WRITE (type 2): charged by wire size, different tenant queue.
	write := classedPkt(1400, "stor.rs.WRITE", 2)
	write.Meta.Tenant = 1
	write.Meta.MsgType = 2
	write.Meta.MsgSize = 64 * 1024
	v2 := e.Process(enclave.Egress, write, 0)
	if !v2.Queued || v2.SendAt != int64(write.Size()) {
		t.Errorf("write verdict = %+v, want pacing by wire size %d", v2, write.Size())
	}
}

func TestPortKnocking(t *testing.T) {
	e := newEnclave(8)
	if err := InstallPortKnocking(e, "fw", "*", [3]int64{1001, 1002, 1003}, 22, 64); err != nil {
		t.Fatal(err)
	}
	syn := func(src uint32, dstPort uint16) bool {
		p := packet.New(src, 99, 5555, dstPort, 0)
		p.TCPHdr.Flags = packet.FlagSYN
		p.Meta.Class = "x.y.z"
		p.Meta.MsgID = uint64(src)<<16 | uint64(dstPort)
		v := e.Process(enclave.Ingress, p, 0)
		return !v.Drop
	}
	alice, mallory := uint32(0x0a000010), uint32(0x0a000666)

	// Before knocking: protected port drops.
	if syn(alice, 22) {
		t.Fatal("port 22 open before knocking")
	}
	// Correct sequence opens it.
	syn(alice, 1001)
	syn(alice, 1002)
	syn(alice, 1003)
	if !syn(alice, 22) {
		t.Error("port 22 closed after correct knock")
	}
	// Another host is still locked out.
	if syn(mallory, 22) {
		t.Error("port 22 open for non-knocker")
	}
	// Wrong order resets the state machine.
	syn(mallory, 1001)
	syn(mallory, 1003) // wrong second knock
	syn(mallory, 1002)
	syn(mallory, 1003)
	if syn(mallory, 22) {
		t.Error("port 22 open after wrong-order knock")
	}
}

func TestReplicaSelection(t *testing.T) {
	e := newEnclave(9)
	f, err := Compile("replica_sel")
	if err != nil {
		t.Fatal(err)
	}
	e.InstallFunc(f)
	e.UpdateGlobal("replica_sel", "primary", 500)
	e.UpdateGlobalArray("replica_sel", "replicas", []int64{501, 502, 503})
	e.CreateTable(enclave.Egress, "t")
	e.AddRule(enclave.Egress, "t", enclave.Rule{Pattern: "*", Func: "replica_sel"})

	// PUTs (type 2) go to the primary.
	put := classedPkt(100, "mc.r1.PUT", 1)
	put.Meta.MsgType = 2
	put.Meta.Key = 77
	e.Process(enclave.Egress, put, 0)
	if put.IP.Dst != 500 {
		t.Errorf("PUT dst = %d, want 500", put.IP.Dst)
	}
	// GETs spread by key, deterministically.
	dstOf := func(key int64) uint32 {
		g := classedPkt(100, "mc.r1.GET", 2)
		g.Meta.MsgType = 1
		g.Meta.Key = key
		e.Process(enclave.Egress, g, 0)
		return g.IP.Dst
	}
	seen := map[uint32]bool{}
	for k := int64(0); k < 30; k++ {
		d := dstOf(k)
		if d != dstOf(k) {
			t.Fatal("GET routing not deterministic")
		}
		if d != 501 && d != 502 && d != 503 {
			t.Fatalf("GET dst = %d", d)
		}
		seen[d] = true
	}
	if len(seen) != 3 {
		t.Errorf("GETs used %d replicas, want 3", len(seen))
	}
}

func TestAnantaStableBackend(t *testing.T) {
	e := newEnclave(10)
	f, err := Compile("ananta")
	if err != nil {
		t.Fatal(err)
	}
	e.InstallFunc(f)
	e.UpdateGlobalArray("ananta", "pool", []int64{601, 602, 603, 604})
	e.CreateTable(enclave.Egress, "t")
	e.AddRule(enclave.Egress, "t", enclave.Rule{Pattern: "*", Func: "ananta"})

	backendOf := func(srcPort uint16, msgID uint64) uint32 {
		p := packet.New(7, 8, srcPort, 80, 100)
		p.Meta.Class = "lb.r.conn"
		p.Meta.MsgID = msgID
		e.Process(enclave.Egress, p, 0)
		return p.IP.Dst
	}
	seen := map[uint32]bool{}
	for i := 0; i < 40; i++ {
		msgID := uint64(i + 1)
		sp := uint16(2000 + i)
		b := backendOf(sp, msgID)
		for j := 0; j < 5; j++ {
			if backendOf(sp, msgID) != b {
				t.Fatal("backend changed mid-connection")
			}
		}
		seen[b] = true
	}
	if len(seen) < 3 {
		t.Errorf("connections used only %d backends", len(seen))
	}
}

func TestTenantMeter(t *testing.T) {
	e := newEnclave(11)
	f, err := Compile("tenant_meter")
	if err != nil {
		t.Fatal(err)
	}
	e.InstallFunc(f)
	e.UpdateGlobalArray("tenant_meter", "usage", make([]int64, 4))
	e.CreateTable(enclave.Egress, "t")
	e.AddRule(enclave.Egress, "t", enclave.Rule{Pattern: "*", Func: "tenant_meter"})

	var want [4]int64
	for i := 0; i < 100; i++ {
		tenant := int64(i % 3)
		p := classedPkt(100+i, "a.b.c", uint64(i+1))
		p.Meta.Tenant = tenant
		want[tenant] += int64(p.Size())
		e.Process(enclave.Egress, p, 0)
	}
	got, err := e.ReadGlobalArray("tenant_meter", "usage")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got[i] != want[i] {
			t.Errorf("tenant %d usage = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestNativeTwinsAgree drives each function with both the interpreter and
// its native twin, under identical deterministic randomness, and requires
// identical packet-level outcomes — the property behind the paper's
// "native vs Eden" comparisons.
func TestNativeTwinsAgree(t *testing.T) {
	type outcome struct {
		prio, path, queue, charge, drop int64
		dst                             uint32
	}
	drive := func(mode enclave.Mode) []outcome {
		rng := rand.New(rand.NewSource(99))
		var now int64
		e := enclave.New(enclave.Config{
			Name:  "twin",
			Clock: func() int64 { now++; return now },
			Rand:  rng.Uint64,
		})
		// A second RNG view for the native twins: the enclave hands both
		// modes the same cfg.Rand, so natives that need randomness use a
		// closure over the same stream via the enclave config.
		if err := InstallPIAS(e, "sched", "app.*", []int64{10 * 1024, 1024 * 1024}, []int64{7, 5}); err != nil {
			t.Fatal(err)
		}
		if err := InstallWCMP(e, "lb", "app.*", []int64{100, 200}, []int64{10, 1}); err != nil {
			t.Fatal(err)
		}
		e.AttachNative("pias", NativePIAS(rng.Uint64))
		e.AttachNative("wcmp", NativeWCMP(rng.Uint64))
		e.SetMode(mode)

		var out []outcome
		for i := 0; i < 400; i++ {
			p := classedPkt(1000+i%400, "app.r.c", uint64(1+i%7))
			e.Process(enclave.Egress, p, 0)
			out = append(out, outcome{
				prio:   p.Get(packet.FieldPriority),
				path:   p.Get(packet.FieldVLAN),
				queue:  p.Meta.Control.Queue,
				charge: p.Meta.Control.Charge,
				dst:    p.IP.Dst,
			})
		}
		return out
	}
	a := drive(enclave.ModeInterpreted)
	b := drive(enclave.ModeNative)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("packet %d: interpreted %+v vs native %+v", i, a[i], b[i])
		}
	}
}

func TestInstallerValidation(t *testing.T) {
	e := newEnclave(12)
	if err := InstallWCMP(e, "t", "*", []int64{1}, []int64{1, 2}); err == nil {
		t.Error("mismatched labels/weights accepted")
	}
	if err := InstallWCMP(e, "t", "*", nil, nil); err == nil {
		t.Error("empty WCMP accepted")
	}
	if err := InstallWCMP(e, "t", "*", []int64{1}, []int64{0}); err == nil {
		t.Error("zero total weight accepted")
	}
	if err := InstallWCMP(e, "t", "*", []int64{1, 2}, []int64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if err := InstallPIAS(e, "t", "*", []int64{1}, nil); err == nil {
		t.Error("mismatched PIAS thresholds accepted")
	}
	if err := InstallSFF(e, "t", "*", []int64{1}, nil); err == nil {
		t.Error("mismatched SFF thresholds accepted")
	}
	if err := InstallFlowECMP(e, "t", "*", nil); err == nil {
		t.Error("empty ECMP accepted")
	}
}

func BenchmarkWCMPInterpreted(b *testing.B) {
	e := newEnclave(1)
	if err := InstallWCMP(e, "lb", "*", []int64{100, 200}, []int64{10, 1}); err != nil {
		b.Fatal(err)
	}
	p := classedPkt(1400, "x.y.z", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Process(enclave.Egress, p, 0)
	}
}

func BenchmarkWCMPNative(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var now int64
	e := enclave.New(enclave.Config{Name: "b", Clock: func() int64 { now++; return now }, Rand: rng.Uint64})
	if err := InstallWCMP(e, "lb", "*", []int64{100, 200}, []int64{10, 1}); err != nil {
		b.Fatal(err)
	}
	e.AttachNative("wcmp", NativeWCMP(rng.Uint64))
	e.SetMode(enclave.ModeNative)
	p := classedPkt(1400, "x.y.z", 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Process(enclave.Egress, p, 0)
	}
}

package main

import (
	"strings"
	"testing"

	"eden/internal/compiler"
	"eden/internal/enclave"
	"eden/internal/experiments"
	"eden/internal/funcs"
	"eden/internal/packet"
)

// Each output check must reject a deliberately corrupted result.

func udpSentPacket(t *testing.T, seq uint64) (*udpPlan, *packet.Packet) {
	t.Helper()
	f := &udpFixture{plan: newUDPPlan(1), ipA: packet.MustParseIP("10.0.0.1"), ipB: packet.MustParseIP("10.0.0.2")}
	f.initRing()
	e := enclave.New(enclave.Config{Name: "s", Clock: func() int64 { return 0 }})
	if err := funcs.InstallPIAS(e, "sched", "udp.*", udpPIASThresholds, udpPIASPrios); err != nil {
		t.Fatal(err)
	}
	// Walk the plan so PIAS has counted the message's earlier packets.
	var pk *packet.Packet
	for s := uint64(0); s <= seq; s++ {
		pk = f.fill(s, udpSmall)
		e.Process(enclave.Egress, pk, 0)
	}
	return f.plan, pk
}

func TestUDPCheckAcceptsSentPackets(t *testing.T) {
	for seq := uint64(0); seq < 300; seq += 37 {
		plan, pk := udpSentPacket(t, seq)
		if plan.blocked[plan.entries[seq].flow] {
			continue
		}
		if err := checkUDPPacket(plan, pk); err != "" {
			t.Fatalf("seq %d: %s", seq, err)
		}
	}
}

func TestUDPCheckRejectsCorruption(t *testing.T) {
	seq := uint64(0)
	plan, _ := udpSentPacket(t, 0)
	for plan.blocked[plan.entries[seq].flow] {
		seq++
	}
	corrupt := map[string]func(*packet.Packet){
		"wrong PIAS priority": func(p *packet.Packet) { p.VLAN.PCP ^= 1 },
		"wrong class":         func(p *packet.Packet) { p.Meta.Class = "udp.zz" },
		"wrong message id":    func(p *packet.Packet) { p.Meta.MsgID++ },
		"wrong sequence":      func(p *packet.Packet) { p.Payload[0]++ },
		"firewalled port":     func(p *packet.Packet) { p.UDPHdr.DstPort = udpFwPort },
	}
	for name, fn := range corrupt {
		_, pk := udpSentPacket(t, seq)
		fn(pk)
		if checkUDPPacket(plan, pk) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestUDPCountsRejectLostPacket(t *testing.T) {
	if err := checkUDPCounts(10, 9, 1, 1); err != "" {
		t.Fatalf("conserved counts rejected: %s", err)
	}
	if checkUDPCounts(10, 8, 1, 1) == "" {
		t.Error("a lost packet was accepted")
	}
	if checkUDPCounts(10, 8, 2, 1) == "" {
		t.Error("a wrongly firewalled packet was accepted")
	}
}

// mixBad runs 20k trace packets through an enclave with the given policy
// and returns how many disagreed with the model.
func mixBad(t *testing.T, policy func(*enclave.Enclave) error) (int64, string) {
	t.Helper()
	f, err := newMixFixture(newMixTrace(3), nil, policy)
	if err != nil {
		t.Fatal(err)
	}
	w := f.trace.workers[0]
	f.process(w, 20000, true, nil)
	return w.bad, w.badMsg
}

func TestMixModelAcceptsPolicy(t *testing.T) {
	if n, msg := mixBad(t, mixPolicy); n != 0 {
		t.Fatalf("%d packets rejected, first: %s", n, msg)
	}
}

func TestMixModelRejectsWrongPriority(t *testing.T) {
	n, msg := mixBad(t, mixPolicyWith(mixLabels, []int64{5, 3}))
	if n == 0 || !strings.Contains(msg, "PIAS") {
		t.Fatalf("wrong priorities accepted (%d, %q)", n, msg)
	}
}

func TestMixModelRejectsLabelOutsideSet(t *testing.T) {
	n, msg := mixBad(t, mixPolicyWith([]int64{10, 20, 99}, mixPrios))
	if n == 0 || !strings.Contains(msg, "outside") {
		t.Fatalf("label outside the set accepted (%d, %q)", n, msg)
	}
}

func TestWCMPSharesRejectSkew(t *testing.T) {
	if err := checkWCMPShares([]int64{2500, 5000, 2500}, mixWeights, 0.03); err != "" {
		t.Fatal(err)
	}
	if checkWCMPShares([]int64{5000, 2500, 2500}, mixWeights, 0.03) == "" {
		t.Error("skewed label shares accepted")
	}
}

// ctlEnclave returns an enclave holding the base policy, its globals and
// queue, and the model describing it.
func ctlEnclave(t *testing.T) (*enclave.Enclave, *ctlModel) {
	t.Helper()
	m := &ctlModel{scalars: map[[2]string]int64{}, arrays: map[[2]string][]int64{}, queues: 1}
	if _, err := ctlBasePolicy(m); err != nil {
		t.Fatal(err)
	}
	fns := map[string]*compiler.Func{}
	for _, name := range m.funcs {
		fn, err := funcs.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		fns[name] = fn
	}
	e := enclave.New(enclave.Config{Name: "e", Clock: func() int64 { return 0 }})
	if _, err := modelTx(e, m, fns).Commit(); err != nil {
		t.Fatal(err)
	}
	for _, g := range ctlGlobals {
		var err error
		if g.array != nil {
			err = e.UpdateGlobalArray(g.fn, g.name, g.array)
			m.arrays[[2]string{g.fn, g.name}] = g.array
		} else {
			err = e.UpdateGlobal(g.fn, g.name, g.scalar)
			m.scalars[[2]string{g.fn, g.name}] = g.scalar
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	e.AddQueue(ctlQueueRate, ctlQueueCap)
	if d := ctlDiff(m, e); d != "" {
		t.Fatalf("faithful enclave rejected: %s", d)
	}
	return e, m
}

func TestCtlDiffRejectsMissingRule(t *testing.T) {
	e, m := ctlEnclave(t)
	if err := e.RemoveRule(enclave.Egress, "sched", "b7.*"); err != nil {
		t.Fatal(err)
	}
	if ctlDiff(m, e) == "" {
		t.Error("missing rule accepted")
	}
}

func TestCtlDiffRejectsReorderedRule(t *testing.T) {
	e, m := ctlEnclave(t)
	if err := e.RemoveRule(enclave.Egress, "sched", "b3.*"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(enclave.Egress, "sched", enclave.Rule{Pattern: "b3.*", Func: "pias"}); err != nil {
		t.Fatal(err)
	}
	if ctlDiff(m, e) == "" {
		t.Error("reordered rules accepted")
	}
}

func TestCtlDiffRejectsMissingQueue(t *testing.T) {
	e, m := ctlEnclave(t)
	m.queues = 2 // the model says two queues were added; the enclave has one
	if d := ctlDiff(m, e); !strings.Contains(d, "rate queues") {
		t.Errorf("missing queue: got %q", d)
	}
}

func TestCtlDiffRejectsWrongGlobal(t *testing.T) {
	e, m := ctlEnclave(t)
	if err := e.UpdateGlobalArray("pias", "priovals", []int64{6, 2}); err != nil {
		t.Fatal(err)
	}
	if ctlDiff(m, e) == "" {
		t.Error("wrong global accepted")
	}
}

func fig9Result() *experiments.Fig9Result {
	r := &experiments.Fig9Result{
		Small: map[experiments.Scheme]map[experiments.Mode]experiments.Fig9Cell{},
		Inter: map[experiments.Scheme]map[experiments.Mode]experiments.Fig9Cell{},
	}
	avg := map[experiments.Scheme]float64{experiments.SchemeBaseline: 300, experiments.SchemePIAS: 200, experiments.SchemeSFF: 210}
	for s, a := range avg {
		r.Small[s] = map[experiments.Mode]experiments.Fig9Cell{}
		r.Inter[s] = map[experiments.Mode]experiments.Fig9Cell{}
		for _, md := range []experiments.Mode{experiments.ModeNative, experiments.ModeEden} {
			r.Small[s][md] = experiments.Fig9Cell{AvgUsec: a, P95Usec: 2 * a, Flows: 100}
			r.Inter[s][md] = experiments.Fig9Cell{AvgUsec: 10 * a, P95Usec: 20 * a, Flows: 20}
		}
	}
	return r
}

func TestFig9CheckRejectsCorruption(t *testing.T) {
	if err := checkFig9(fig9Result()); err != "" {
		t.Fatalf("valid figure rejected: %s", err)
	}
	corrupt := map[string]func(*experiments.Fig9Result){
		"unequal native and EDEN": func(r *experiments.Fig9Result) {
			c := r.Small[experiments.SchemeSFF][experiments.ModeEden]
			c.AvgUsec++
			r.Small[experiments.SchemeSFF][experiments.ModeEden] = c
		},
		"PIAS not faster": func(r *experiments.Fig9Result) {
			for _, md := range []experiments.Mode{experiments.ModeNative, experiments.ModeEden} {
				c := r.Small[experiments.SchemePIAS][md]
				c.AvgUsec = 400
				r.Small[experiments.SchemePIAS][md] = c
			}
		},
		"flow counts differ": func(r *experiments.Fig9Result) {
			for _, md := range []experiments.Mode{experiments.ModeNative, experiments.ModeEden} {
				c := r.Inter[experiments.SchemeSFF][md]
				c.Flows += 5
				r.Inter[experiments.SchemeSFF][md] = c
			}
		},
	}
	for name, fn := range corrupt {
		r := fig9Result()
		fn(r)
		if checkFig9(r) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPIASModel(t *testing.T) {
	for _, c := range []struct {
		cum  int64
		want uint8
	}{{1, 6}, {1000, 6}, {1001, 3}, {3000, 3}, {3001, 0}} {
		if got := piasModel(c.cum, udpPIASThresholds, udpPIASPrios); got != c.want {
			t.Errorf("piasModel(%d) = %d, want %d", c.cum, got, c.want)
		}
	}
}

package enclave

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"eden/internal/compiler"
	"eden/internal/packet"
)

// counterSrc is a minimal message-lifetime function: one per-message
// counter, so every flow that crosses it leaves exactly one state entry.
const counterSrc = `
msg n : int
fun (p, m, g) ->
    m.n <- m.n + 1
`

// installCounter installs counterSrc under the given name with a
// catch-all rule on its own table (one table per function: only the
// first matching rule per table fires).
func installCounter(t *testing.T, e *Enclave, name string) {
	t.Helper()
	if err := e.InstallFunc(compiler.MustCompile(name, counterSrc)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable(Egress, "t."+name); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Egress, "t."+name, Rule{Pattern: "*", Func: name}); err != nil {
		t.Fatal(err)
	}
}

// flowPkt builds a packet for flow i (distinct source address + port, so
// flows spread over the engine's shards).
func flowPkt(i int) *packet.Packet {
	p := packet.New(0x0a000000+uint32(i>>8), 0x0a800001, uint16(20000+i), 80, 100)
	p.Meta.Class = "a.b.c"
	return p
}

// Regression for the eviction-fairness bug: the old evictFlow started
// scanning at the inserted key's own shard and took the first
// map-iteration victim, so a hot flow hash-adjacent to the insert churn
// could be evicted while idle flows elsewhere survived. The engine must
// pick victims by idle age: with the table full of idle flows and one
// recently touched flow, overflow inserts may never evict the hot flow.
func TestFlowEvictionPrefersIdle(t *testing.T) {
	var now int64
	e := New(Config{
		Name:        "x",
		Clock:       func() int64 { return now },
		MaxMessages: 32,
		IdleTimeout: 1000, // epoch interval 500ns
	})
	installCounter(t, e, "f")

	// Fill to capacity at stamp 0.
	for i := 0; i < 32; i++ {
		e.Process(Egress, flowPkt(i), now)
	}
	if got := e.LiveFlows(); got != 32 {
		t.Fatalf("live = %d after fill, want 32", got)
	}

	// Touch flow 0 late: it is now the youngest entry in the table.
	now = 5000
	hot := flowPkt(0)
	e.Process(Egress, hot, now)
	hotID := hot.Meta.MsgID
	if hotID == 0 {
		t.Fatal("no enclave-assigned message id")
	}

	// Overflow with fresh flows. Every insert must evict an idle victim —
	// never the hot flow, never the key just inserted.
	for i := 0; i < 16; i++ {
		p := flowPkt(1000 + i)
		e.Process(Egress, p, now)
		if p.Meta.MsgID == 0 {
			t.Fatal("no enclave-assigned message id")
		}
		again := flowPkt(1000 + i)
		e.Process(Egress, again, now)
		if again.Meta.MsgID != p.Meta.MsgID {
			t.Fatalf("insert %d: just-inserted flow was evicted", i)
		}
	}

	check := flowPkt(0)
	e.Process(Egress, check, now)
	if check.Meta.MsgID != hotID {
		t.Fatalf("hot flow was evicted (id %d -> %d) — eviction is not idle-ordered", hotID, check.Meta.MsgID)
	}
	if got := e.LiveFlows(); got != 32 {
		t.Errorf("live = %d after churn, want 32", got)
	}
	if got := e.Metrics().Snapshot().Counters["flow_evictions"]; got != 16 {
		t.Errorf("flow_evictions = %d, want 16", got)
	}
}

// SweepIdle must reclaim exactly the idle flows, cascade into every
// message-lifetime function's state — including functions installed after
// the flows were created — and keep sweeping correctly after a function
// is uninstalled.
func TestSweepReclaimsIdleFlowsAndState(t *testing.T) {
	var now int64
	e := New(Config{Name: "x", Clock: func() int64 { return now }, IdleTimeout: 1000})
	installCounter(t, e, "f")

	a, b := flowPkt(1), flowPkt(2)
	e.Process(Egress, a, now)
	e.Process(Egress, b, now)
	idA, idB := a.Meta.MsgID, b.Meta.MsgID

	// A stage-assigned message id the flow table never sees: only the
	// function's own sweep can reclaim its state.
	stage := flowPkt(3)
	stage.Meta.MsgID = 77
	e.Process(Egress, stage, now)

	// g arrives after the flows exist; it must still receive cascades.
	installCounter(t, e, "g")

	// Keep A warm; B and message 77 go idle.
	now = 2500
	e.Process(Egress, flowPkt(1), now)
	if _, ok := e.MsgState("g", idA); !ok {
		t.Fatal("late-installed function did not accumulate state")
	}

	now = 3000
	stats := e.SweepIdle(now)
	if stats.Skipped {
		t.Fatal("sweep skipped")
	}
	if stats.FlowsReclaimed != 1 {
		t.Errorf("FlowsReclaimed = %d, want 1 (flow B)", stats.FlowsReclaimed)
	}
	if stats.MsgsReclaimed == 0 {
		t.Error("MsgsReclaimed = 0, want the stage-assigned message swept")
	}
	if _, ok := e.MsgState("f", idB); ok {
		t.Error("idle flow B's state survived the sweep")
	}
	if _, ok := e.MsgState("f", idA); !ok {
		t.Error("warm flow A's state was reclaimed")
	}
	if _, ok := e.MsgState("g", idA); !ok {
		t.Error("warm flow A's state in late-installed g was reclaimed")
	}
	if _, ok := e.MsgState("f", 77); ok {
		t.Error("idle stage-assigned message state survived the sweep")
	}
	if got := e.LiveFlows(); got != 1 {
		t.Errorf("live = %d after sweep, want 1", got)
	}
	snap := e.Metrics().Snapshot()
	if got := snap.Counters["flow_idle_reclaims"]; got != 1 {
		t.Errorf("flow_idle_reclaims = %d, want 1", got)
	}
	if got := snap.Counters["msg_idle_reclaims"]; got == 0 {
		t.Error("msg_idle_reclaims = 0, want > 0")
	}

	// Re-sweeping the same epoch is a no-op; uninstalling a function must
	// not break later sweeps.
	if s := e.SweepIdle(now); !s.Skipped {
		t.Error("second sweep in the same epoch ran")
	}
	if err := e.UninstallFunc("f"); err != nil {
		t.Fatal(err)
	}
	now = 10000
	if s := e.SweepIdle(now); s.Skipped {
		t.Error("sweep after uninstall skipped")
	}
	if got := e.LiveFlows(); got != 0 {
		t.Errorf("live = %d after final sweep, want 0", got)
	}
}

// The per-function message cap must evict by idle age with a second
// chance for recently touched entries, and mirror evictions to both the
// per-function and the enclave-wide counters.
func TestFuncMsgEvictionIdleOrdered(t *testing.T) {
	var now int64
	e := New(Config{Name: "x", Clock: func() int64 { return now }, MaxMessages: 4, IdleTimeout: 1000})
	installCounter(t, e, "f")

	send := func(msgID uint64) {
		p := flowPkt(int(msgID))
		p.Meta.MsgID = msgID
		e.Process(Egress, p, now)
	}
	for id := uint64(1); id <= 4; id++ {
		send(id)
	}
	// Message 1 is the oldest-created but most recently touched; the cap
	// must spend its pressure on message 2, the idlest.
	now = 2500
	send(1)
	send(5)

	if _, ok := e.MsgState("f", 1); !ok {
		t.Error("recently touched message 1 was evicted — eviction is creation-ordered, not idle-ordered")
	}
	if _, ok := e.MsgState("f", 2); ok {
		t.Error("idlest message 2 survived the cap")
	}
	if _, ok := e.MsgState("f", 5); !ok {
		t.Error("just-inserted message 5 was evicted")
	}
	snap := e.Metrics().Snapshot()
	if got := snap.Counters["func_msg_evictions"]; got != 1 {
		t.Errorf("func_msg_evictions = %d, want 1", got)
	}
	if got := snap.Counters["fn.f.msg_evictions"]; got != 1 {
		t.Errorf("fn.f.msg_evictions = %d, want 1", got)
	}
}

// Regression for hottest-message eviction: the second chance used to
// compare coarse epoch stamps, so a message hit only within its creation
// epoch looked idle and the busiest message was evicted once entries
// passed MaxMessages. One enclave-classified hot flow (every fifth
// packet) runs among tagged single-packet messages that never end: its
// message state must survive the cap, and PIAS must keep demoting it
// down to priority 0 once it has sent more than 1 MB.
func TestFuncMsgEvictionSparesHotMessage(t *testing.T) {
	var now int64
	e := New(Config{Name: "x", Clock: func() int64 { return now }, MaxMessages: 4096})
	installPIAS(t, e)

	const hotPkts = 3000
	var hotID uint64
	var hotBytes int64
	tagged := uint64(1 << 32)
	for i := 0; i < 5*hotPkts; i++ {
		now += 1000
		if i%5 != 0 {
			tagged++
			p := mkPkt(100)
			p.Meta.Class = "a.b.c"
			p.Meta.MsgID = tagged
			e.Process(Egress, p, now)
			continue
		}
		p := mkPkt(1400) // MsgID 0: the enclave assigns the flow's message
		p.Meta.Class = "a.b.c"
		hotBytes += p.Get(packet.FieldSize) // before PIAS adds a VLAN tag
		e.Process(Egress, p, now)
		hotID = p.Meta.MsgID
		if prio := p.Get(packet.FieldPriority); hotBytes > 1<<20 && prio != 0 {
			t.Fatalf("hot packet %d: PIAS priority %d at %d message bytes, want 0", i/5, prio, hotBytes)
		}
	}
	if hotBytes <= 1<<20 {
		t.Fatalf("hot flow sent only %d bytes", hotBytes)
	}
	slots, ok := e.MsgState("pias", hotID)
	if !ok {
		t.Fatal("hot message state was evicted")
	}
	if slots[0] != hotBytes {
		t.Errorf("hot message size = %d, want %d", slots[0], hotBytes)
	}
	if got := e.Metrics().Snapshot().Counters["func_msg_evictions"]; got == 0 {
		t.Error("func_msg_evictions = 0: the cap was never reached")
	}
}

// The flow→message-ID hit path must not allocate: a packet on a known
// flow costs a shard read-lock and an atomic stamp refresh, nothing else.
func TestFlowHitPathZeroAllocs(t *testing.T) {
	var now int64
	e := New(Config{Name: "x", Clock: func() int64 { return now }, IdleTimeout: 1000})
	installCounter(t, e, "f")

	p := flowPkt(1)
	e.Process(Egress, p, now) // create the flow and its message state
	allocs := testing.AllocsPerRun(1000, func() {
		now++
		p.Meta.MsgID = 0 // fresh arrival: the enclave re-resolves the id
		e.Process(Egress, p, now)
	})
	if allocs != 0 {
		t.Errorf("hit path allocates %.1f allocs/op, want 0", allocs)
	}
}

// Steady-state churn — a flow is tracked, ends, and a fresh flow takes
// its place — must recycle entries through the shard freelists instead
// of allocating one per insert. The first cycle per shard allocates (the
// entry and the map cell); after priming, inserts must be alloc-free.
func TestFlowChurnRecyclesEntries(t *testing.T) {
	var now int64
	e := New(Config{Name: "x", Clock: func() int64 { return now }, IdleTimeout: 1000})

	p := flowPkt(0)
	i := 0
	churn := func() {
		i++
		p.IP.Src = 0x0a000000 + uint32(i%512)
		p.TCPHdr.SrcPort = uint16(30000 + i%512)
		e.flowMessageID(p, now)
		e.EndFlow(p.Flow())
	}
	for j := 0; j < 1024; j++ {
		churn() // prime the freelists and map cells
	}
	if allocs := testing.AllocsPerRun(2000, churn); allocs > 0 {
		t.Errorf("steady-state churn allocates %.2f allocs/insert, want 0", allocs)
	}
}

// Concurrent create/evict/expire against control-plane pipeline swaps:
// run under -race. Workers hammer Process with a mix of fresh and hot
// flows while one goroutine ends flows, one sweeps with advancing time,
// and one commits transactions that install/uninstall a function and
// churn rules (swapping the published pipeline under the sweeper).
func TestFlowStateConcurrentChurn(t *testing.T) {
	var clock atomic.Int64
	e := New(Config{
		Name:        "x",
		Clock:       func() int64 { return clock.Load() },
		MaxMessages: 256, // small cap: capacity eviction races the sweeper
		IdleTimeout: 10_000,
	})
	if _, err := e.CreateTable(Egress, "t"); err != nil {
		t.Fatal(err)
	}
	installCounter(t, e, "f")

	const (
		workers = 4
		iters   = 3000
	)
	var workWG, helpWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < workers; w++ {
		workWG.Add(1)
		go func(w int) {
			defer workWG.Done()
			for i := 0; i < iters; i++ {
				var p *packet.Packet
				if i%3 == 0 {
					p = flowPkt(w) // hot flow per worker
				} else {
					p = flowPkt(1000 + w*iters + i) // fresh flow
				}
				e.Process(Egress, p, clock.Add(7))
			}
		}(w)
	}

	// Flow terminations racing the workers and the sweeper.
	helpWG.Add(1)
	go func() {
		defer helpWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for w := 0; w < workers; w++ {
				e.EndFlow(flowPkt(1000 + w*iters + i%iters).Flow())
			}
		}
	}()

	// The sweeper, driven by the advancing clock.
	helpWG.Add(1)
	go func() {
		defer helpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.SweepIdle(clock.Add(1000))
		}
	}()

	// Control plane: transactions swapping the published pipeline.
	helpWG.Add(1)
	go func() {
		defer helpWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("g%d", i%2)
			tx := e.Begin()
			tx.InstallFunc(compiler.MustCompile(name, counterSrc))
			tx.AddRule(Egress, "t", Rule{Pattern: "churn.*", Func: name})
			if _, err := tx.Commit(); err != nil {
				t.Errorf("install commit: %v", err)
				return
			}
			tx = e.Begin()
			tx.RemoveRule(Egress, "t", "churn.*")
			tx.UninstallFunc(name)
			if _, err := tx.Commit(); err != nil {
				t.Errorf("uninstall commit: %v", err)
				return
			}
		}
	}()

	// Workers run a fixed iteration count; the helpers loop until stopped.
	workWG.Wait()
	close(stop)
	helpWG.Wait()

	// The table must be internally consistent after the storm.
	live := e.LiveFlows()
	if live < 0 {
		t.Errorf("live flow count went negative: %d", live)
	}
	now := clock.Add(100 * 10_000)
	e.SweepIdle(now)
	if got := e.LiveFlows(); got != 0 {
		t.Errorf("live = %d after quiescent sweep, want 0", got)
	}
}

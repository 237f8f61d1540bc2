// Benchmarks regenerating the paper's evaluation: one benchmark per
// figure and table. Each reports the figure's headline numbers as custom
// benchmark metrics, so `go test -bench=.` reproduces the whole
// evaluation section in one command (cmd/edenbench prints the full
// tables). The simulated experiments use reduced run counts per
// benchmark iteration; shapes are asserted by the integration tests in
// internal/experiments.
package eden_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"eden/internal/compiler"
	"eden/internal/enclave"
	"eden/internal/experiments"
	"eden/internal/netsim"
	"eden/internal/packet"
	"eden/internal/udpnet"
)

// BenchmarkSimEventLoop measures the simulator's event queue in
// isolation: schedule-and-fire cycles through the typed 4-ary heap with
// 64 events in flight. With a single shared closure the loop must be
// allocation-free (the backing array is reused), which ReportAllocs
// makes visible as 0 allocs/op.
func BenchmarkSimEventLoop(b *testing.B) {
	sim := netsim.New(1)
	remaining := b.N
	var next netsim.Time
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			next += netsim.Microsecond
			sim.At(next, tick)
		}
	}
	// 64 self-rescheduling events keep the heap at a realistic depth.
	for i := 0; i < 64; i++ {
		sim.At(netsim.Time(i), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	sim.RunAll()
}

// benchFig9 runs Figure 9 at the benchmark scale with the given trial
// parallelism (0 = the CPU-count default), restoring the default after.
func benchFig9(b *testing.B, parallel int) {
	experiments.SetParallelism(parallel)
	defer experiments.SetParallelism(0)
	cfg := experiments.DefaultFig9Config()
	cfg.Runs = 2
	cfg.Duration = 100 * netsim.Millisecond
	var res *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig9(cfg)
	}
	b.ReportMetric(res.Small[experiments.SchemeBaseline][experiments.ModeEden].AvgUsec, "baseline-small-avg-us")
	b.ReportMetric(res.Small[experiments.SchemePIAS][experiments.ModeEden].AvgUsec, "pias-small-avg-us")
	b.ReportMetric(res.Small[experiments.SchemeSFF][experiments.ModeEden].AvgUsec, "sff-small-avg-us")
	b.ReportMetric(res.Small[experiments.SchemePIAS][experiments.ModeEden].P95Usec, "pias-small-p95-us")
}

// BenchmarkFigure9 regenerates Figure 9 (flow-scheduling FCT) with trials
// fanned across the worker pool, and reports the small-flow average FCT
// per scheme. Compare against BenchmarkFigure9Serial for the speedup from
// trial-level parallelism; the reported figure metrics are identical.
func BenchmarkFigure9(b *testing.B) { benchFig9(b, 0) }

// BenchmarkFigure9Serial is BenchmarkFigure9 with -parallel 1 (all trials
// on one goroutine), the pre-parallelism baseline.
func BenchmarkFigure9Serial(b *testing.B) { benchFig9(b, 1) }

// BenchmarkFigure10 regenerates Figure 10 (ECMP vs WCMP throughput).
func BenchmarkFigure10(b *testing.B) {
	cfg := experiments.DefaultFig10Config()
	cfg.Runs = 2
	cfg.Duration = 150 * netsim.Millisecond
	var res *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig10(cfg)
	}
	b.ReportMetric(res.Cells[experiments.LBECMP][experiments.ModeEden].Mbps, "ecmp-mbps")
	b.ReportMetric(res.Cells[experiments.LBWCMP][experiments.ModeEden].Mbps, "wcmp-mbps")
}

// BenchmarkFigure11 regenerates Figure 11 (Pulsar storage QoS).
func BenchmarkFigure11(b *testing.B) {
	cfg := experiments.DefaultFig11Config()
	cfg.Runs = 1
	cfg.Duration = 400 * netsim.Millisecond
	var res *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig11(cfg)
	}
	b.ReportMetric(res.Writes[experiments.ScenarioIsolated].MBps, "writes-isolated-MBps")
	b.ReportMetric(res.Writes[experiments.ScenarioSimultaneous].MBps, "writes-simultaneous-MBps")
	b.ReportMetric(res.Writes[experiments.ScenarioRateControlled].MBps, "writes-ratecontrolled-MBps")
	b.ReportMetric(res.Reads[experiments.ScenarioRateControlled].MBps, "reads-ratecontrolled-MBps")
}

// BenchmarkFigure12 regenerates Figure 12 (CPU overheads of the Eden
// components, as % of the 10 Gbps per-packet budget).
func BenchmarkFigure12(b *testing.B) {
	cfg := experiments.DefaultFig12Config()
	cfg.Batches = 100
	var res *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFig12(cfg)
	}
	b.ReportMetric(res.AvgPct["API"], "api-overhead-pct")
	b.ReportMetric(res.AvgPct["enclave"], "enclave-overhead-pct")
	b.ReportMetric(res.AvgPct["interpreter"], "interpreter-overhead-pct")
}

// benchEnclave builds an enclave with the PIAS policy installed on a
// catch-all egress table, ready for contended-throughput measurements.
func benchEnclave(b *testing.B, vm enclave.VMBackend) *enclave.Enclave {
	b.Helper()
	var now atomic.Int64
	e := enclave.New(enclave.Config{Name: "bench", Clock: func() int64 { return now.Add(1) }, VM: vm})
	pias, err := compiler.Compile("pias", `
msg size : int
msg priority : int = 1
global priorities : int array
global priovals : int array

fun (packet, msg, _global) ->
    let msg_size = msg.size + packet.size
    msg.size <- msg_size
    let rec search index =
        if index >= _global.priorities.Length then 0
        elif msg_size <= _global.priorities.[index] then _global.priovals.[index]
        else search (index + 1)
    let desired = msg.priority
    packet.priority <- (if desired < 1 then desired else search 0)
`)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.InstallFunc(pias); err != nil {
		b.Fatal(err)
	}
	noop, err := compiler.Compile("noop", "fun (p, m, g) ->\n p.priority <- p.priority")
	if err != nil {
		b.Fatal(err)
	}
	if err := e.InstallFunc(noop); err != nil {
		b.Fatal(err)
	}
	e.UpdateGlobalArray("pias", "priorities", []int64{10 * 1024, 1024 * 1024})
	e.UpdateGlobalArray("pias", "priovals", []int64{7, 5})
	if _, err := e.CreateTable(enclave.Egress, "sched"); err != nil {
		b.Fatal(err)
	}
	if err := e.AddRule(enclave.Egress, "sched", enclave.Rule{Pattern: "*", Func: "pias"}); err != nil {
		b.Fatal(err)
	}
	return e
}

// churnRules mutates the control plane (add + remove a rule) in a loop
// until stop is closed, simulating controller reconfiguration racing the
// data path.
func churnRules(e *enclave.Enclave, stop <-chan struct{}, churns *atomic.Int64) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := e.AddRule(enclave.Egress, "sched", enclave.Rule{Pattern: "churn.*", Func: "noop"}); err != nil {
			panic(err)
		}
		if err := e.RemoveRule(enclave.Egress, "sched", "churn.*"); err != nil {
			panic(err)
		}
		churns.Add(1)
	}
}

// benchProcessParallel drives Process from GOMAXPROCS goroutines
// while a background goroutine churns rules, measuring the contended
// per-packet cost of the enclave data path. Packets arrive without a
// stage-assigned message id (the common unclassified case), so every
// packet also exercises the enclave's flow→message-id lookup — the path
// that serialized all callers on the enclave lock before the
// copy-on-write refactor.
func benchProcessParallel(b *testing.B, vm enclave.VMBackend) {
	e := benchEnclave(b, vm)
	stop := make(chan struct{})
	var churns atomic.Int64
	go churnRules(e, stop, &churns)
	var srcPort atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// One flow per goroutine: distinct source port.
		p := packet.New(0x0a000001, 0x0a000002, uint16(10000+srcPort.Add(1)), 80, 1400)
		p.Meta.Class = "a.b.c"
		var now int64
		for pb.Next() {
			now++
			p.Meta.MsgID = 0 // fresh arrival: enclave assigns the message id
			e.Process(enclave.Egress, p, now)
		}
	})
	b.StopTimer()
	close(stop)
	b.ReportMetric(float64(churns.Load()), "rule-churns")
}

// BenchmarkProcessParallel is the shipped configuration: PIAS bytecode
// in the closure-compiled backend. Compare with the Interp variant to
// see the compiled backend's effect on the same build.
func BenchmarkProcessParallel(b *testing.B) { benchProcessParallel(b, enclave.VMCompiled) }

// BenchmarkProcessParallelInterp forces the switch-loop interpreter —
// the pre-compiled-backend baseline.
func BenchmarkProcessParallelInterp(b *testing.B) { benchProcessParallel(b, enclave.VMInterp) }

// BenchmarkTable1 runs every Table 1 capability demonstration.
func BenchmarkTable1(b *testing.B) {
	ok := 0.0
	for i := 0; i < b.N; i++ {
		ok = 0
		for _, row := range experiments.Table1() {
			if row.Demo != nil {
				if err := row.Demo(); err != nil {
					b.Fatalf("%s: %v", row.Function, err)
				}
				ok++
			}
		}
	}
	b.ReportMetric(ok, "functions-demonstrated")
}

// BenchmarkFlowStateRamp runs a reduced flow-state ramp (1k -> 16k live
// flows) per iteration and reports the flat-latency claim's inputs: p99
// Process latency at the first and the peak step, plus the reclamation
// accounting. The full 10k -> 1M ramp is `edenbench -exp flows`.
func BenchmarkFlowStateRamp(b *testing.B) {
	cfg := experiments.DefaultFlowsConfig()
	cfg.StartFlows = 1000
	cfg.PeakFlows = 16000
	cfg.Steps = 4
	cfg.HotFlows = 100
	var res *experiments.FlowsResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunFlows(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Check(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.StepP99Ns[0], "p99-first-ns")
	b.ReportMetric(res.StepP99Ns[len(res.StepP99Ns)-1], "p99-peak-ns")
	b.ReportMetric(float64(res.IdleReclaims), "idle-reclaims")
	b.ReportMetric(float64(res.Sweeps), "sweeps")
	b.ReportMetric(flowChurnAllocsPerInsert(b), "allocs-per-insert")
}

// flowChurnAllocsPerInsert measures the flow engine's steady-state churn
// cost: distinct flows inserted and reclaimed by the idle sweeper, over
// and over. With the per-shard entry freelists this must be allocation
// free after a warm-up round — each insert reuses an entry the sweeper
// recycled — so the metric doubles as a regression gate.
func flowChurnAllocsPerInsert(b *testing.B) float64 {
	b.Helper()
	var now atomic.Int64
	e := enclave.New(enclave.Config{
		Name:        "churn",
		Clock:       func() int64 { return now.Load() },
		IdleTimeout: 1000,
	})
	const perRound = 4096
	p := packet.New(0, 0x0a800001, 0, 80, 100)
	p.Meta.Class = "a.b.c"
	round := func(r int) {
		for i := 0; i < perRound; i++ {
			p.IP.Src = 0x0a000000 + uint32(i>>8)
			p.TCPHdr.SrcPort = uint16(20000 + i&0xff)
			p.Meta.MsgID = 0 // enclave-assigned: hits the flow engine
			e.Process(enclave.Egress, p, now.Load())
		}
		// Advance past the idle timeout and sweep: every flow inserted
		// this round is reclaimed, its entry recycled for the next round.
		e.SweepIdle(now.Add(10_000))
	}
	round(0) // warm-up: allocates the entries the freelists then recycle
	var before, after runtime.MemStats
	const rounds = 8
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 1; r <= rounds; r++ {
		round(r)
	}
	runtime.ReadMemStats(&after)
	perInsert := float64(after.Mallocs-before.Mallocs) / float64(rounds*perRound)
	if perInsert > 0.5 {
		b.Errorf("steady-state flow churn allocates %.2f allocs/insert, want ~0 (freelist regression)", perInsert)
	}
	return perInsert
}

// BenchmarkUDPLoopback measures the real-socket substrate end to end:
// two udpnet nodes on loopback, the sender injecting raw packets through
// its (empty) enclave chain, the receiver decoding and delivering them.
// Wall-clock throughput comes out as the benchmark's pkts/s and MB/s;
// the receive path's zero-alloc claim is checked directly against the
// receiver's pool counters — in steady state the bounded free lists must
// recycle every datagram buffer and packet, so pool allocations per
// delivered packet must be ~0 regardless of what the Go runtime does
// elsewhere.
func BenchmarkUDPLoopback(b *testing.B) {
	const (
		payloadSize = 256
		window      = 256 // in-flight cap: stays inside the receiver's inbound queue
		burstMax    = 64
	)
	var rcvd atomic.Int64
	ipA, ipB := packet.MustParseIP("10.0.0.1"), packet.MustParseIP("10.0.0.2")
	recv, err := udpnet.Start(udpnet.Config{
		IP:    ipB,
		OnRaw: func(*packet.Packet) { rcvd.Add(1) },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	send, err := udpnet.Start(udpnet.Config{IP: ipA})
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	if err := send.AddPeer(ipB, recv.Addr().String()); err != nil {
		b.Fatal(err)
	}

	// A fixed ring of immutable packets: in-flight never exceeds the
	// window, and the contents are constant, so slots are reused safely
	// without synchronizing with the sender's event loop.
	payload := make([]byte, payloadSize)
	ring := make([]*packet.Packet, window)
	for i := range ring {
		pk := packet.NewUDP(ipA, ipB, 7000, 7001, payloadSize)
		pk.Payload = payload
		pk.Meta.Class = "bench.udp"
		pk.Meta.MsgID = uint64(i + 1)
		ring[i] = pk
	}

	lost := 0
	run := func(total int) (delivered int64) {
		startRcvd := rcvd.Load()
		sent, idle := 0, 0
		for sent < total {
			inflight := sent - lost - int(rcvd.Load()-startRcvd)
			if inflight >= window {
				time.Sleep(50 * time.Microsecond)
				if idle++; idle > 4000 { // ~200ms stall: write off the window as lost
					lost += inflight
					idle = 0
				}
				continue
			}
			idle = 0
			burst := window - inflight
			if burst > total-sent {
				burst = total - sent
			}
			if burst > burstMax {
				burst = burstMax
			}
			start, cnt := sent, burst
			send.Do(func() {
				for j := 0; j < cnt; j++ {
					send.Output(ring[(start+j)%window])
				}
			})
			sent += burst
		}
		// Drain: wait until arrivals go quiet.
		for quiet := 0; quiet < 20; {
			before := rcvd.Load()
			time.Sleep(10 * time.Millisecond)
			if rcvd.Load() == before {
				quiet++
			} else {
				quiet = 0
			}
			if rcvd.Load()-startRcvd >= int64(total) {
				break
			}
		}
		return rcvd.Load() - startRcvd
	}

	run(2 * window) // warm-up: populate pools and the decoder's intern table
	bufAllocs0 := recv.Metrics().Counter("pool_buf_allocs").Load()
	pktAllocs0 := recv.Metrics().Counter("pool_pkt_allocs").Load()

	b.SetBytes(payloadSize)
	b.ResetTimer()
	startT := time.Now()
	delivered := run(b.N)
	elapsed := time.Since(startT)
	b.StopTimer()

	poolAllocs := (recv.Metrics().Counter("pool_buf_allocs").Load() - bufAllocs0) +
		(recv.Metrics().Counter("pool_pkt_allocs").Load() - pktAllocs0)
	if delivered > 0 {
		b.ReportMetric(float64(delivered)/elapsed.Seconds(), "pkts/s")
		b.ReportMetric(float64(poolAllocs)/float64(delivered), "rx-pool-allocs/pkt")
	}
	b.ReportMetric(100*float64(b.N-int(delivered))/float64(b.N), "loss-%")
	if perPkt := float64(poolAllocs) / float64(max(delivered, 1)); perPkt > 0.01 {
		b.Errorf("steady-state receive path allocated %.3f pooled objects/packet, want ~0", perPkt)
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"eden/internal/enclave"
	"eden/internal/funcs"
	"eden/internal/packet"
	"eden/internal/stage"
	"eden/internal/trace"
	"eden/internal/workload"
)

// enclave-mix: two workers call Enclave.Process directly on a seeded
// trace. See README.md for the make-up of the trace.
const (
	mixFlows       = 1 << 18 // flow population
	mixZipfS       = 1.1     // Zipf exponent of flow popularity
	mixTracePkts   = 1 << 20 // trace length (both workers together)
	mixMSS         = 1460
	mixTaggedEvery = 2    // every 2nd flow (by hash) is tagged by the stage
	mixCommitEvery = 4096 // worker 0 commits once per this many packets
	mixChurnRules  = 8    // churn rules kept in the table
	mixHdrBytes    = 54   // Ethernet + IPv4 + TCP, what PIAS counts
	mixQueueRate   = 8e9  // Pulsar queue, bits/s
	mixQueueCap    = 4 << 20
	mixWorkers     = 2
	// mixLatencyEvery: one Process call in this many is timed alone.
	mixLatencyEvery = 64
)

var (
	mixThresholds = []int64{10 * 1024, 1024 * 1024}
	mixPrios      = []int64{6, 3}
	mixLabels     = []int64{10, 20, 30}
	mixWeights    = []int64{1, 2, 1}
)

// mixPkt is one trace packet. Messages of untagged flows only size the
// packets: the enclave classifies the flow and treats it as one message.
type mixPkt struct {
	flow  uint32
	msg   uint32 // index into the worker's message table
	size  uint16 // payload bytes
	first bool   // first packet of its message
	last  bool   // last packet of its message
}

// mixMsg is one stage-tagged message.
type mixMsg struct {
	read   bool
	size   int64
	tenant int64
}

// mixWorker is one worker's share of the trace and its model state.
type mixWorker struct {
	pkts   []mixPkt
	msgs   []mixMsg
	tagged []bool // per message: tagged by the stage

	// Model state, owned by the worker while it runs.
	meta     []packet.Metadata // current tag per tagged message
	cumMsg   []int64           // PIAS bytes per tagged message since its tag
	labelMsg []int16           // WCMP label index per tagged message (-1 none)
	pos      int               // next trace index
	pk       packet.Packet
	bad      int64
	badMsg   string
	labels   [3]int64  // messages per WCMP label, counted at first packet
	lat      []float64 // sampled Process latencies, microseconds
}

type mixTrace struct {
	workers  [mixWorkers]*mixWorker
	cumFlow  []int64 // PIAS bytes per untagged flow (the enclave's message)
	flowLbl  []int16 // WCMP label index per untagged flow
	flowSeen []bool
}

func mixTagged(flow uint32) bool  { return flowHash(flow)%mixTaggedEvery == 0 }
func mixWorkerOf(flow uint32) int { return int(flowHash(flow) >> 7 % mixWorkers) }

func flowHash(flow uint32) uint64 {
	x := uint64(flow) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newMixTrace draws the trace: Zipf flow popularity, per-flow messages
// with web-search sizes, split between the workers by flow hash.
func newMixTrace(seed int64) *mixTrace {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, mixZipfS, 1, mixFlows-1)
	sizes := workload.SearchDist()
	t := &mixTrace{
		cumFlow:  make([]int64, mixFlows),
		flowLbl:  make([]int16, mixFlows),
		flowSeen: make([]bool, mixFlows),
	}
	for i := range t.workers {
		t.workers[i] = &mixWorker{}
	}
	type cur struct {
		msg  uint32
		left int64
		last int // index of the flow's latest packet in its worker's share
	}
	curs := make(map[uint32]*cur, 1<<16)
	for i := 0; i < mixTracePkts; i++ {
		flow := uint32(zipf.Uint64())
		w := t.workers[mixWorkerOf(flow)]
		c := curs[flow]
		first := false
		if c == nil || c.left == 0 {
			m := mixMsg{read: rng.Intn(2) == 0, size: sizes.Sample(rng), tenant: int64(rng.Intn(2))}
			if c == nil {
				c = &cur{}
				curs[flow] = c
			}
			c.msg, c.left = uint32(len(w.msgs)), m.size
			w.msgs = append(w.msgs, m)
			w.tagged = append(w.tagged, mixTagged(flow))
			first = true
		}
		n := c.left
		if n > mixMSS {
			n = mixMSS
		}
		c.left -= n
		c.last = len(w.pkts)
		w.pkts = append(w.pkts, mixPkt{flow: flow, msg: c.msg, size: uint16(n), first: first, last: c.left == 0})
	}
	// The trace repeats, so every message ends inside it: a message still
	// open at the end is cut short there, and the stage ends it.
	for flow, c := range curs {
		if c.left > 0 {
			t.workers[mixWorkerOf(flow)].pkts[c.last].last = true
		}
	}
	for _, w := range t.workers {
		w.meta = make([]packet.Metadata, len(w.msgs))
		w.cumMsg = make([]int64, len(w.msgs))
		w.labelMsg = make([]int16, len(w.msgs))
	}
	return t
}

// mixPolicy is the egress pipeline: message-WCMP, PIAS, then Pulsar on
// stage-tagged storage traffic, with one rate queue.
var mixPolicy = mixPolicyWith(mixLabels, mixPrios)

// mixPolicyWith is mixPolicy with the given WCMP labels and PIAS
// priorities (tests install wrong ones to see the model reject them).
func mixPolicyWith(labels, prios []int64) func(*enclave.Enclave) error {
	return func(e *enclave.Enclave) error {
		if err := funcs.InstallMessageWCMP(e, "route", "*", labels, mixWeights); err != nil {
			return err
		}
		if err := funcs.InstallPIAS(e, "sched", "*", mixThresholds, prios); err != nil {
			return err
		}
		e.AddQueue(mixQueueRate, mixQueueCap)
		return funcs.InstallPulsar(e, "rate", "storage.*", []int64{0, 0})
	}
}

func newMixStage() (*stage.Stage, error) {
	s := stage.Storage()
	for _, r := range []string{
		`<READ, -> -> [READ, {msg_id, msg_type, msg_size, tenant}]`,
		`<WRITE, -> -> [WRITE, {msg_id, msg_type, msg_size, tenant}]`,
	} {
		if _, err := s.ParseAndCreateRule("io", r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

var mixTenantNames = []string{"0", "1"}

func (m mixMsg) stageMessage() stage.Message {
	typ, name := int64(2), "WRITE"
	if m.read {
		typ, name = 1, "READ"
	}
	return stage.Message{FieldValues: []string{name, mixTenantNames[m.tenant]}, Type: typ, Size: m.size, Tenant: m.tenant}
}

type mixFixture struct {
	trace  *mixTrace
	enc    *enclave.Enclave
	stage  *stage.Stage
	t0     time.Time
	queueT int64 // clock reading when the rate queue was created
	subm   int64 // Process calls submitted so far
	commit int   // commits so far
	// dry skips the enclave calls, leaving the benchmark's own per-packet
	// work (packet set-up and stage tagging) to be timed alone.
	dry bool
}

func (f *mixFixture) clock() int64 { return time.Since(f.t0).Nanoseconds() }

func setupEnclaveMix(seed int64, traced bool) (fixture, error) {
	var tr *trace.Tracer
	if traced {
		tr = trace.NewTracerEvery(1<<12, 64)
	}
	f, err := newMixFixture(newMixTrace(seed), tr, mixPolicy)
	if err != nil {
		return nil, err
	}
	// Warm-up: the first 32k packets of each worker fill flow state.
	for _, w := range f.trace.workers {
		f.subm += f.process(w, 1<<15, true, nil)
	}
	o := &outcome{}
	f.checkTotals(o, false)
	if len(o.errs) > 0 {
		return nil, fmt.Errorf("warm-up: %s", o.errs[0])
	}
	return f, nil
}

// newMixFixture builds an enclave for the trace with the given policy
// (nil: no tables; the flow classifier rule is always installed).
func newMixFixture(t *mixTrace, tr *trace.Tracer, policy func(*enclave.Enclave) error) (*mixFixture, error) {
	f := &mixFixture{trace: t, t0: time.Now()}
	f.enc = enclave.New(enclave.Config{
		Name: "mix-os", Platform: "os", Clock: f.clock, Tracer: tr,
		MaxMessages: 2 * mixFlows,
	})
	f.enc.FlowClassifier().Add(enclave.FlowRule{Proto: enclave.U8(packet.ProtoTCP), Class: "flow.tcp"})
	f.queueT = f.clock()
	if policy != nil {
		if err := policy(f.enc); err != nil {
			return nil, err
		}
	}
	var err error
	if f.stage, err = newMixStage(); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *mixFixture) close() {}

// process runs n trace packets of worker w and checks each verdict
// against the model when check is set. Tagged messages are tagged by the
// stage at their first packet and ended after their last. It returns the
// number of Process calls.
func (f *mixFixture) process(w *mixWorker, n int, check bool, spans *spanLog) int64 {
	e, t := f.enc, f.trace
	var done int64
	pk := &w.pk
	for i := 0; i < n; i++ {
		d := &w.pkts[w.pos]
		w.pos++
		if w.pos == len(w.pkts) {
			w.pos = 0
		}
		src, dst, sport, dport := workload.FlowTuple(uint64(d.flow))
		*pk = packet.Packet{
			Eth: packet.Ethernet{EtherType: packet.EtherTypeIPv4},
			IP: packet.IPv4{Src: src, Dst: dst, Proto: packet.ProtoTCP, TTL: 64,
				TotalLength: uint16(40 + int(d.size))},
			TCPHdr:     packet.TCP{SrcPort: sport, DstPort: dport},
			PayloadLen: int(d.size),
		}
		// One packet in mixLatencyEvery is timed alone and, in the traced
		// run, recorded as an operation with spans.
		sampled := done&(mixLatencyEvery-1) == 0
		tr := spans
		if !sampled {
			tr = nil
		}
		op, root := tr.root("packet")
		tagged := w.tagged[d.msg]
		if tagged {
			if d.first {
				sp := tr.begin(op, root, "stage.Stage.Tag")
				// Every message matches one of the stage's two rules.
				w.meta[d.msg], _ = f.stage.Tag(w.msgs[d.msg].stageMessage())
				tr.end(sp)
				w.cumMsg[d.msg] = 0
				w.labelMsg[d.msg] = -1
			}
			pk.Meta = w.meta[d.msg]
		}
		done++
		if f.dry {
			tr.end(root)
			continue
		}
		sp := tr.begin(op, root, "enclave.Enclave.Process")
		var v enclave.Verdict
		if sampled {
			t0 := time.Now()
			v = e.Process(enclave.Egress, pk, f.clock())
			w.lat = append(w.lat, float64(time.Since(t0).Nanoseconds())/1e3)
		} else {
			v = e.Process(enclave.Egress, pk, f.clock())
		}
		tr.end(sp)
		tr.end(root)
		if tagged && d.last {
			e.EndMessage(w.meta[d.msg].MsgID)
		}
		if !check {
			continue
		}
		// The model: PIAS bytes per message, one WCMP label per message.
		var cum *int64
		var lbl *int16
		newMsg := false
		if tagged {
			cum, lbl = &w.cumMsg[d.msg], &w.labelMsg[d.msg]
			newMsg = d.first
		} else {
			cum, lbl = &t.cumFlow[d.flow], &t.flowLbl[d.flow]
			if !t.flowSeen[d.flow] {
				t.flowSeen[d.flow] = true
				*lbl = -1
				newMsg = true
			}
		}
		*cum += int64(mixHdrBytes) + int64(d.size)
		if want := piasModel(*cum, mixThresholds, mixPrios); pk.VLAN.PCP != want {
			w.note("flow %d: PIAS priority %d, want %d at %d message bytes", d.flow, pk.VLAN.PCP, want, *cum)
		}
		li := int16(-1)
		for k, l := range mixLabels {
			if int64(pk.VLAN.VID) == l {
				li = int16(k)
			}
		}
		switch {
		case li < 0:
			w.note("flow %d: WCMP label %d outside %v", d.flow, pk.VLAN.VID, mixLabels)
		case newMsg || *lbl < 0:
			*lbl = li
			w.labels[li]++
		case *lbl != li:
			w.note("flow %d: WCMP label changed within a message (%d -> %d)", d.flow, mixLabels[*lbl], mixLabels[li])
		}
		if !tagged && v.Queued {
			w.note("flow %d: untagged packet steered to a Pulsar queue", d.flow)
		}
	}
	return done
}

func (w *mixWorker) note(format string, args ...any) {
	if w.bad == 0 {
		w.badMsg = fmt.Sprintf(format, args...)
	}
	w.bad++
}

// commit is worker 0's policy transaction: add one churn rule behind
// the catch-all (so it never matches), retire the oldest, and push the
// WCMP weights again.
func (f *mixFixture) applyCommit(k int) error {
	tx := f.enc.Begin()
	tx.AddRule(enclave.Egress, "sched", enclave.Rule{Pattern: fmt.Sprintf("churn.%d", k), Func: "pias"})
	if k >= mixChurnRules {
		tx.RemoveRule(enclave.Egress, "sched", fmt.Sprintf("churn.%d", k-mixChurnRules))
	}
	if _, err := tx.Commit(); err != nil {
		return err
	}
	return f.enc.UpdateGlobalArray("message_wcmp", "path_weights", mixWeights)
}

// mixRun is the result of driving the workers for a while.
type mixRun struct {
	pkts    int64
	commits []float64 // commit latencies, microseconds
	lat     []float64 // sampled Process latencies, microseconds
	elapsed time.Duration
	cpu     time.Duration
}

// drive runs the given workers concurrently until the deadline; worker 0
// commits every mixCommitEvery packets when commits is set.
func (f *mixFixture) drive(workers []*mixWorker, dur time.Duration, commits, check bool, spans *spanLog, o *outcome) mixRun {
	var r mixRun
	var mu sync.Mutex
	var wg sync.WaitGroup
	u0, s0 := cpuTimes()
	t0 := time.Now()
	deadline := t0.Add(dur)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *mixWorker) {
			defer wg.Done()
			var n int64
			var lat []float64
			for time.Now().Before(deadline) {
				n += f.process(w, mixCommitEvery, check, spans)
				if i == 0 && commits {
					k := f.commit
					f.commit++
					_, sp := spans.root("enclave.Tx.Commit+UpdateGlobalArray")
					c0 := time.Now()
					if err := f.applyCommit(k); err != nil {
						mu.Lock()
						o.failf("commit %d: %v", k, err)
						mu.Unlock()
						return
					}
					lat = append(lat, float64(time.Since(c0).Nanoseconds())/1e3)
					spans.end(sp)
				}
			}
			mu.Lock()
			r.pkts += n
			r.commits = append(r.commits, lat...)
			mu.Unlock()
		}(i, w)
	}
	wg.Wait()
	r.elapsed = time.Since(t0)
	for _, w := range workers {
		r.lat = append(r.lat, w.lat...)
		w.lat = w.lat[:0]
	}
	u1, s1 := cpuTimes()
	r.cpu = u1 - u0 + s1 - s0
	return r
}

// run drives both workers in one-second slices and reports the median
// slice's throughput and commit latency.
func (f *mixFixture) run(rc *runCtx) *outcome {
	o := &outcome{}
	slices := int(rc.dur / time.Second)
	if slices < 1 {
		slices = 1
	}
	var pps, cpu, latP50, commits []float64
	var pkts int64
	for s := 0; s < slices && len(o.errs) == 0; s++ {
		r := f.drive(f.trace.workers[:], rc.dur/time.Duration(slices), true, true, rc.spans, o)
		pkts += r.pkts
		pps = append(pps, float64(r.pkts)/r.elapsed.Seconds())
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/1e3/float64(r.pkts+int64(len(r.commits))))
		latP50 = append(latP50, median(r.lat))
		commits = append(commits, r.commits...)
	}
	f.subm += pkts
	f.checkTotals(o, true)
	o.attempted = pkts + int64(len(commits))
	o.opsPerSec = median(pps)
	o.cpuPerOpUs = median(cpu)
	o.latencyUs = median(latP50)
	o.addRef("enclave_pkts_per_s", o.opsPerSec, "pkts/s", 0)
	o.addRef("enclave_commit_us_p50", median(commits), "us", len(commits))
	return o
}

// checkTotals checks what holds over the whole run: per-packet model
// mismatches, WCMP's weights (when enough messages were seen), Pulsar's
// rate bound and the packet count.
func (f *mixFixture) checkTotals(o *outcome, weights bool) {
	var labels [3]int64
	for _, w := range f.trace.workers {
		if w.bad > 0 {
			o.failf("%d packets disagree with the model, first: %s", w.bad, w.badMsg)
		}
		for i := range labels {
			labels[i] += w.labels[i]
		}
	}
	if err := checkWCMPShares(labels[:], mixWeights, 0.03); err != "" && weights {
		o.failf("%s", err)
	}
	elapsed := f.clock() - f.queueT
	admitted := f.enc.Metrics().Counter("queue.0.admitted_bytes").Load()
	if bound := int64(mixQueueRate/8*float64(elapsed)/1e9) + mixQueueCap; admitted > bound {
		o.failf("Pulsar queue admitted %d bytes in %.3fs, bound rate*t+cap = %d", admitted, float64(elapsed)/1e9, bound)
	}
	if admitted == 0 {
		o.failf("Pulsar queue admitted nothing")
	}
	if got := f.enc.Stats().Packets; got != f.subm {
		o.failf("enclave counted %d packets, %d were submitted", got, f.subm)
	}
}

// checkWCMPShares checks that per-message label counts follow the
// weights to within tol (absolute share).
func checkWCMPShares(counts, weights []int64, tol float64) string {
	var n, wsum int64
	for i := range counts {
		n += counts[i]
		wsum += weights[i]
	}
	if n < 1000 {
		return fmt.Sprintf("only %d WCMP messages to judge the weights by", n)
	}
	for i := range counts {
		got := float64(counts[i]) / float64(n)
		want := float64(weights[i]) / float64(wsum)
		if math.Abs(got-want) > tol {
			return fmt.Sprintf("WCMP label %d carried %.3f of messages, weight share %.3f", mixLabels[i], got, want)
		}
	}
	return ""
}

// goAllocs returns the process's heap allocation and GC cycle counts.
func goAllocs() (mallocs uint64, gcs uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.NumGC
}

// Package enclave implements the Eden enclave (§3.4): the programmable
// data-plane element that sits on the end-host network stack (or on a
// programmable NIC) and applies action functions to packets.
//
// An enclave holds:
//
//   - a set of match-action tables whose rules match on a packet's *class*
//     (the fully qualified stage.ruleset.class name attached by stages, or
//     produced by the enclave's own five-tuple classifier) and whose action
//     is a compiled action function;
//   - a runtime that executes the functions through the edenvm interpreter,
//     preparing per-invocation packet/message/global state and enforcing
//     the concurrency model that §3.4.4 derives from access annotations;
//   - a set of rate-limited queues that functions steer packets into.
//
// The same Enclave type serves as both the "OS" enclave and the "NIC"
// enclave of the paper's prototype: the attach point (host stack vs NIC
// egress in the simulator) differs, the enclave logic does not. Functions
// may also be installed with a native Go implementation alongside the
// bytecode, enabling the paper's native-vs-interpreted comparisons.
package enclave

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"eden/internal/compiler"
	"eden/internal/metrics"
	"eden/internal/packet"
	"eden/internal/qos"
	"eden/internal/telemetry"
	"eden/internal/trace"
)

// Direction selects the processing pipeline.
type Direction int

// Pipeline directions.
const (
	Egress Direction = iota
	Ingress
)

// Verdict is the outcome of enclave processing for one packet.
type Verdict struct {
	// Drop reports that the packet must be discarded.
	Drop bool
	// SendAt is the earliest transmission time. Equal to the processing
	// time unless the packet was steered into a rate-limited queue.
	SendAt int64
	// Queued reports whether the packet passed through a rate queue.
	Queued bool
	// ToController reports that the packet should be mirrored to the
	// controller.
	ToController bool
}

// Mode selects how installed functions execute.
type Mode int

// Execution modes.
const (
	// ModeInterpreted runs the compiled bytecode in the edenvm
	// interpreter (Eden's deployable configuration).
	ModeInterpreted Mode = iota
	// ModeNative runs the registered native Go implementation, the
	// "hard-coded function within the Eden enclave" baseline of §5.1.
	ModeNative
)

// Config configures an enclave.
type Config struct {
	// Name identifies the enclave (host name, typically).
	Name string
	// Platform is a free-form platform label ("os" or "nic").
	Platform string
	// Clock supplies the current time in nanoseconds. Required.
	Clock func() int64
	// Rand supplies randomness to action functions; nil seeds a
	// deterministic generator.
	Rand func() uint64
	// Fuel bounds instructions per invocation; 0 means the interpreter
	// default.
	Fuel int
	// VM selects the bytecode execution backend (closure-compiled vs
	// interpreted). VMDefault defers to the package default, which is
	// VMCompiled unless overridden with SetDefaultVM.
	VM VMBackend
	// MaxMessages is the target live-flow count the flow-state engine
	// sizes for (shard count) and the backstop capacity beyond which the
	// idlest sampled entry is evicted; it also caps tracked per-message
	// state entries per function (idle-ordered eviction). With IdleTimeout
	// set, reclamation normally keeps occupancy below this and the
	// backstop never fires. 0 means 65536.
	MaxMessages int
	// IdleTimeout enables epoch-based idle reclamation: flow→message-ID
	// entries and per-function message state untouched for at least this
	// many nanoseconds (on the clock Process is driven with) are reclaimed
	// by SweepIdle. 0 disables reclamation (capacity eviction only).
	IdleTimeout int64
	// Tracer, when non-nil, records data-path events for sampled packets
	// (classification, rule matches, invocations, queueing).
	Tracer *trace.Tracer
	// WallClock, when non-nil, supplies real time in nanoseconds and
	// enables the interpreter-latency histogram. Kept separate from Clock
	// so simulated enclaves can still measure real interpreter cost.
	WallClock func() int64
}

// Stats counts enclave activity.
type Stats struct {
	Packets        int64 // packets processed
	Matched        int64 // packets that matched at least one rule
	Invocations    int64 // action function invocations
	Traps          int64 // invocations terminated by the interpreter
	Drops          int64 // packets dropped by functions
	QueueDrops     int64 // packets dropped at full rate queues
	QueueMisconfig int64 // packets steered to a nonexistent queue (sent anyway)
	Instructions   int64 // total interpreted instructions
}

// counters caches the registry counters the data path updates on every
// packet, so hot-path updates are a single atomic add.
type counters struct {
	packets        *metrics.Counter
	matched        *metrics.Counter
	invocations    *metrics.Counter
	traps          *metrics.Counter
	drops          *metrics.Counter
	queueDrops     *metrics.Counter
	queueMisconfig *metrics.Counter
	instructions   *metrics.Counter
	flowEvictions  *metrics.Counter
	// VM backend split: which backend ran each invocation, and how many
	// installed functions fell back to the interpreter because their
	// bytecode did not compile.
	compiledInvocations *metrics.Counter
	interpInvocations   *metrics.Counter
	compileFallbacks    *metrics.Counter
	// Flow-state engine metrics: live tracked flows, idle reclamation by
	// the sweeper (flow entries and per-function message entries),
	// capacity evictions of per-function message state, and sweep passes.
	flowLive         *metrics.Gauge
	flowIdleReclaims *metrics.Counter
	msgIdleReclaims  *metrics.Counter
	funcMsgEvictions *metrics.Counter
	sweeps           *metrics.Counter
}

// queueMeter caches per-queue registry metrics.
type queueMeter struct {
	admittedPkts  *metrics.Counter
	admittedBytes *metrics.Counter
	droppedPkts   *metrics.Counter
	droppedBytes  *metrics.Counter
	backlog       *metrics.Gauge
	rateBps       *metrics.Gauge
}

// Enclave is an Eden data-plane element. Its exported methods are safe for
// concurrent use.
//
// Concurrency model: the match-action configuration lives in an immutable
// pipeline snapshot published through an atomic pointer. Process loads
// the snapshot once per packet and never acquires mu — the data path is
// lock-free with respect to the control plane. Control-plane
// mutations serialize on mu, build the next snapshot copy-on-write, and
// swap it in with a monotonically increasing generation number (see
// pipeline.go and tx.go).
type Enclave struct {
	cfg Config

	// pipe is the published snapshot; the single atomic load per
	// packet that replaces the old read lock.
	pipe atomic.Pointer[pipeline]
	mode atomic.Int32

	// mu serializes control-plane commits (snapshot build + publish).
	// The data path never takes it.
	mu sync.Mutex
	// buildSeq numbers builds for copy-on-write ownership tags; guarded
	// by mu.
	buildSeq uint64

	queueMu     sync.Mutex
	queues      []*qos.Queue
	queueMeters []queueMeter

	// vmCompiled is the backend resolved from Config.VM at creation:
	// true runs closure-compiled programs (with per-function interpreter
	// fallback), false forces the interpreter. Immutable after New.
	vmCompiled bool

	flows    *FlowClassifier
	flowIDs  flowEngine
	reg      *metrics.Registry
	stats    counters
	interpNs *metrics.Histogram // nil unless Config.WallClock is set
	vmPool   sync.Pool
	vmSeq    atomic.Uint64 // numbers pooled VMs for their RNG seeds

	// epochs is the engine's idle clock (from Config.IdleTimeout);
	// zero-valued (disabled) when reclamation is off.
	epochs qos.EpochSweep
	// sweepMu serializes SweepIdle passes; lastSweepEpoch/sweptEpoch gate
	// to at most one pass per epoch (guarded by sweepMu). sweepScratch is
	// the reusable reclaimed-id buffer.
	sweepMu        sync.Mutex
	lastSweepEpoch int64
	sweptEpoch     bool
	sweepScratch   []uint64
	sweepNs        *metrics.Histogram // nil unless Config.WallClock is set

	// spans records control-plane spans (tx commit/abort, publishes).
	// Always on: control operations are rare, and the ring is bounded.
	spans     *telemetry.Recorder
	component string

	// bootID is a random identifier for this enclave instance. Pipeline
	// generations restart from zero with every instance, so agents report
	// the boot id alongside the generation and the controller treats
	// generations from different epochs as incomparable.
	bootID uint64
}

// New creates an enclave.
func New(cfg Config) *Enclave {
	if cfg.Clock == nil {
		panic("enclave: Config.Clock is required")
	}
	if cfg.MaxMessages == 0 {
		cfg.MaxMessages = 65536
	}
	regName := "enclave"
	if cfg.Name != "" {
		regName = "enclave." + cfg.Name
	}
	reg := metrics.NewRegistry(regName)
	e := &Enclave{
		cfg:   cfg,
		flows: NewFlowClassifier(),
		reg:   reg,
		stats: counters{
			packets:             reg.Counter("packets"),
			matched:             reg.Counter("matched"),
			invocations:         reg.Counter("invocations"),
			traps:               reg.Counter("traps"),
			drops:               reg.Counter("drops"),
			queueDrops:          reg.Counter("queue_drops"),
			queueMisconfig:      reg.Counter("queue_misconfig"),
			instructions:        reg.Counter("instructions"),
			flowEvictions:       reg.Counter("flow_evictions"),
			compiledInvocations: reg.Counter("compiled_invocations"),
			interpInvocations:   reg.Counter("interp_invocations"),
			compileFallbacks:    reg.Counter("compile_fallbacks"),
			// flowLive tracks engine occupancy; the reclaim counters split
			// sweeper reclamation (flows vs per-function message entries)
			// from capacity eviction (flow_evictions, func_msg_evictions).
			flowLive:         reg.Gauge("flow_live"),
			flowIdleReclaims: reg.Counter("flow_idle_reclaims"),
			msgIdleReclaims:  reg.Counter("msg_idle_reclaims"),
			funcMsgEvictions: reg.Counter("func_msg_evictions"),
			sweeps:           reg.Counter("sweeps"),
		},
	}
	if cfg.WallClock != nil {
		e.interpNs = reg.Histogram("interp_ns", metrics.LatencyBucketsNs)
		e.sweepNs = reg.Histogram("sweep_ns", sweepBucketsNs)
	}
	for e.bootID == 0 {
		e.bootID = rand.Uint64()
	}
	e.spans = telemetry.NewRecorder(0)
	e.component = regName
	e.vmCompiled = resolveVM(cfg.VM) == VMCompiled
	e.pipe.Store(emptyPipeline())
	e.epochs = qos.NewEpochSweep(cfg.IdleTimeout)
	e.flowIDs.init(cfg.MaxMessages)
	e.vmPool.New = func() any { return e.newVM() }
	return e
}

// sweepBucketsNs buckets SweepIdle wall durations: a sweep over a
// million-flow table takes milliseconds-to-tens-of-milliseconds, far
// outside metrics.LatencyBucketsNs' per-packet range.
var sweepBucketsNs = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// Name returns the enclave's name.
func (e *Enclave) Name() string { return e.cfg.Name }

// BootID returns the random identifier of this enclave instance. Agents
// report it in their hello as the generation epoch: two generations are
// comparable only if they came from the same boot.
func (e *Enclave) BootID() uint64 { return e.bootID }

// Platform returns the enclave's platform label.
func (e *Enclave) Platform() string { return e.cfg.Platform }

// SetMode switches between interpreted and native execution for functions
// that have a native implementation registered. Functions without one
// always run interpreted.
func (e *Enclave) SetMode(m Mode) {
	e.mode.Store(int32(m))
}

// VM returns the bytecode backend this enclave resolved at creation.
func (e *Enclave) VM() VMBackend {
	if e.vmCompiled {
		return VMCompiled
	}
	return VMInterp
}

// Generation returns the generation number of the currently published
// pipeline snapshot. It increases by one on every successful
// control-plane commit (single mutation or transaction).
func (e *Enclave) Generation() uint64 { return e.pipe.Load().gen }

// Stats returns a snapshot of the enclave's core counters. The full
// metric surface (per-function counters, per-queue accounting, latency
// histograms) is available through Metrics.
func (e *Enclave) Stats() Stats {
	return Stats{
		Packets:        e.stats.packets.Load(),
		Matched:        e.stats.matched.Load(),
		Invocations:    e.stats.invocations.Load(),
		Traps:          e.stats.traps.Load(),
		Drops:          e.stats.drops.Load(),
		QueueDrops:     e.stats.queueDrops.Load(),
		QueueMisconfig: e.stats.queueMisconfig.Load(),
		Instructions:   e.stats.instructions.Load(),
	}
}

// Metrics returns the enclave's metrics registry.
func (e *Enclave) Metrics() *metrics.Registry { return e.reg }

// Spans returns the enclave's control-plane span recorder. Transaction
// commits, aborts and pipeline publishes record here; agents expose it
// over ctlproto so the controller can merge the enclave side of a
// policy's span chain.
func (e *Enclave) Spans() *telemetry.Recorder { return e.spans }

// Rule is one match-action entry: a class pattern and the name of the
// installed function to run. Patterns match fully qualified class names
// exactly, or by prefix when they end in "*" ("memcached.r1.*",
// "http.r1.API*"); the bare "*" matches everything.
type Rule struct {
	Pattern string
	Func    string
}

// MatchesPacket reports whether the rule accepts any of the packet's
// classes (a message may belong to one class per rule-set, §3.3).
func (r Rule) MatchesPacket(pkt *packet.Packet) bool {
	if len(pkt.Meta.Classes) > 0 {
		for _, c := range pkt.Meta.Classes {
			if r.Matches(c) {
				return true
			}
		}
		return false
	}
	return r.Matches(pkt.Meta.Class)
}

// Matches reports whether the rule's pattern accepts a class name.
func (r Rule) Matches(class string) bool {
	switch {
	case r.Pattern == "*":
		return true
	case strings.HasSuffix(r.Pattern, "*"):
		return strings.HasPrefix(class, r.Pattern[:len(r.Pattern)-1])
	default:
		return r.Pattern == class
	}
}

// Table describes one match-action table. Values returned by the enclave
// are point-in-time snapshots of the published pipeline: they do not
// track later mutations.
type Table struct {
	Name  string
	rules []Rule
}

// Rules returns a copy of the table's rules in match order.
func (t *Table) Rules() []Rule { return append([]Rule(nil), t.rules...) }

// CreateTable appends a table to the direction's pipeline (enclave API).
func (e *Enclave) CreateTable(dir Direction, name string) (*Table, error) {
	err := e.mutate(func(b *build) error { return b.createTable(dir, name) })
	if err != nil {
		return nil, err
	}
	return &Table{Name: name}, nil
}

// DeleteTable removes a table by name (enclave API).
func (e *Enclave) DeleteTable(dir Direction, name string) error {
	return e.mutate(func(b *build) error { return b.deleteTable(dir, name) })
}

// Tables lists table names for a direction.
func (e *Enclave) Tables(dir Direction) []string {
	var names []string
	for _, t := range e.pipe.Load().tables[dir] {
		names = append(names, t.name)
	}
	return names
}

// Table returns a snapshot of a table's current rules.
func (e *Enclave) Table(dir Direction, name string) (*Table, bool) {
	for _, t := range e.pipe.Load().tables[dir] {
		if t.name == name {
			out := &Table{Name: name}
			for _, r := range t.rules {
				out.rules = append(out.rules, r.Rule)
			}
			return out, true
		}
	}
	return nil, false
}

// AddRule appends a match-action rule to a table (enclave API). The
// referenced function must already be installed.
func (e *Enclave) AddRule(dir Direction, table string, r Rule) error {
	return e.mutate(func(b *build) error { return b.addRule(dir, table, r) })
}

// RemoveRule deletes the first rule with the given pattern from a table.
func (e *Enclave) RemoveRule(dir Direction, table, pattern string) error {
	return e.mutate(func(b *build) error { return b.removeRule(dir, table, pattern) })
}

// AddQueue creates a rate-limited queue and returns its index. Functions
// select queues by index through the packet.queue control field.
func (e *Enclave) AddQueue(rateBps, capBytes int64) int {
	e.queueMu.Lock()
	defer e.queueMu.Unlock()
	e.queues = append(e.queues, qos.NewQueue(rateBps, capBytes))
	idx := len(e.queues) - 1
	prefix := "queue." + strconv.Itoa(idx) + "."
	m := queueMeter{
		admittedPkts:  e.reg.Counter(prefix + "admitted_pkts"),
		admittedBytes: e.reg.Counter(prefix + "admitted_bytes"),
		droppedPkts:   e.reg.Counter(prefix + "dropped_pkts"),
		droppedBytes:  e.reg.Counter(prefix + "dropped_bytes"),
		backlog:       e.reg.Gauge(prefix + "backlog_bytes"),
		rateBps:       e.reg.Gauge(prefix + "rate_bps"),
	}
	m.rateBps.Set(rateBps)
	e.queueMeters = append(e.queueMeters, m)
	return idx
}

// SetQueueRate updates a queue's drain rate (controller reconfiguration).
func (e *Enclave) SetQueueRate(idx int, rateBps int64) error {
	e.queueMu.Lock()
	defer e.queueMu.Unlock()
	if idx < 0 || idx >= len(e.queues) {
		return fmt.Errorf("enclave: no queue %d", idx)
	}
	e.queues[idx].RateBps = rateBps
	e.queueMeters[idx].rateBps.Set(rateBps)
	return nil
}

// NumQueues returns the number of configured queues.
func (e *Enclave) NumQueues() int {
	e.queueMu.Lock()
	defer e.queueMu.Unlock()
	return len(e.queues)
}

// FlowClassifier returns the enclave's built-in five-tuple classifier
// (the enclave acting as a stage, Table 2's last row).
func (e *Enclave) FlowClassifier() *FlowClassifier { return e.flows }

// Process runs a packet through the direction's pipeline at the given
// time. It classifies unclassified packets with the built-in flow
// classifier, walks every table (first matching rule per table fires, as
// packets can be subject to several functions), applies the action
// functions, and resolves the control outputs into a verdict. The packet's
// headers and metadata may be modified in place.
func (e *Enclave) Process(dir Direction, pkt *packet.Packet, now int64) Verdict {
	p := e.pipe.Load()
	e.stats.packets.Add(1)
	tr := e.cfg.Tracer
	traced := tr.Traces(pkt)

	pkt.ResetControl()

	// Enclave-as-stage: classify unmarked traffic by five-tuple.
	if pkt.Meta.Class == "" {
		if class, ok := e.flows.Classify(pkt); ok {
			pkt.Meta.Class = class
			if traced {
				tr.Record(pkt, now, trace.KindClassify, e.cfg.Name, class)
			}
		}
	}
	if pkt.Meta.MsgID == 0 {
		pkt.Meta.MsgID = e.flowMessageID(pkt, now)
	}

	// Walk the snapshot's tables in order; within each table the first
	// matching rule fires (so a packet is subject to at most one function
	// per table, and to every table unless redirected). Functions compose
	// in table order (§6's fixed execution order); a function may skip
	// ahead by writing packet.goto_table (forward-only, §3.4.2).
	// The walk holds no enclave-wide lock — the snapshot is immutable and
	// rules carry resolved function pointers; invocations take only
	// per-function and per-message locks.
	tables := p.tables[dir]
	mode := Mode(e.mode.Load())
	v := Verdict{SendAt: now}
	anyMatch := false
	for ti := 0; ti < len(tables); ti++ {
		t := tables[ti]
		var f *installedFunc
		for ri := range t.rules {
			r := &t.rules[ri]
			if r.MatchesPacket(pkt) {
				f = r.f
				if f != nil && traced {
					tr.Record(pkt, now, trace.KindMatch, e.cfg.Name, t.name+"/"+r.Pattern+"->"+r.Func)
				}
				break // first match per table
			}
		}
		if f == nil {
			continue
		}
		anyMatch = true
		e.invoke(f, pkt, now, mode)
		if pkt.Meta.Control.Drop != 0 {
			e.stats.matched.Add(1)
			e.stats.drops.Add(1)
			if traced {
				tr.Record(pkt, now, trace.KindDrop, e.cfg.Name, "by "+f.fn.Name)
			}
			v.Drop = true
			return v
		}
		if g := pkt.Meta.Control.GotoTable; g >= 0 {
			pkt.Meta.Control.GotoTable = -1
			if g > int64(ti) && g <= int64(len(tables)) {
				ti = int(g) - 1 // loop increment lands on table g
			} else {
				ti = len(tables) // backward/out-of-range: stop processing
			}
		}
	}

	if !anyMatch {
		return v
	}
	e.stats.matched.Add(1)

	if pkt.Meta.Control.ToController != 0 {
		v.ToController = true
	}

	// Path selection: the function wrote a source-route label.
	if p := pkt.Meta.Control.Path; p >= 0 {
		pkt.HasVLAN = true
		pkt.VLAN.VID = uint16(p & 0x0fff)
	}

	// Queue steering.
	if qi := pkt.Meta.Control.Queue; qi >= 0 {
		charge := pkt.Meta.Control.Charge
		if charge < 0 {
			charge = int64(pkt.Size())
		}
		e.queueMu.Lock()
		if qi >= int64(len(e.queues)) {
			e.queueMu.Unlock()
			// Misconfigured queue index: fail open (send immediately) and
			// count it as misconfiguration, not as a queue drop — the
			// packet is not dropped and no queue was full.
			e.stats.queueMisconfig.Add(1)
			if traced {
				tr.Record(pkt, now, trace.KindQueueMisconfig, e.cfg.Name, "q="+strconv.FormatInt(qi, 10))
			}
			return v
		}
		q := e.queues[qi]
		m := e.queueMeters[qi]
		// Retire already-released items so the backlog gauge (and the cap
		// check inside Enqueue) reflect bytes still awaiting release.
		q.Expire(now)
		release, ok := q.Enqueue(now, nil, charge)
		m.backlog.Set(q.Backlog())
		e.queueMu.Unlock()
		if !ok {
			e.stats.queueDrops.Add(1)
			m.droppedPkts.Add(1)
			m.droppedBytes.Add(charge)
			if traced {
				tr.Record(pkt, now, trace.KindQueueDrop, e.cfg.Name, "q="+strconv.FormatInt(qi, 10))
			}
			v.Drop = true
			return v
		}
		m.admittedPkts.Add(1)
		m.admittedBytes.Add(charge)
		if traced {
			tr.Record(pkt, now, trace.KindEnqueue, e.cfg.Name,
				"q="+strconv.FormatInt(qi, 10)+" charge="+strconv.FormatInt(charge, 10)+" release="+strconv.FormatInt(release, 10))
		}
		v.Queued = true
		v.SendAt = release
	}
	return v
}

// EndMessage releases per-message state for the given message (stages
// call this through the host stack when a message completes; the enclave
// also calls it on flow termination). The cascade covers exactly the
// published pipeline's message-lifetime functions — §3.4.2's annotation
// decides which functions have state scoped to the message at all.
func (e *Enclave) EndMessage(msgID uint64) {
	e.endMessageAll(msgID)
}

// EndFlow releases the enclave-assigned message id and state for a flow.
func (e *Enclave) EndFlow(key packet.FlowKey) {
	sh := e.flowIDs.shard(key)
	sh.mu.Lock()
	ent, ok := sh.ids[key]
	var id uint64
	if ok {
		delete(sh.ids, key)
		id = ent.id
		sh.put(ent)
	}
	sh.mu.Unlock()
	if ok {
		e.stats.flowLive.Set(e.flowIDs.count.Add(-1))
		e.endMessageAll(id)
	}
}

// InstalledFunctions lists installed function names.
func (e *Enclave) InstalledFunctions() []string {
	var names []string
	for n := range e.pipe.Load().funcs {
		names = append(names, n)
	}
	return names
}

// Func returns the compiled form of an installed function.
func (e *Enclave) Func(name string) (*compiler.Func, bool) {
	f, ok := e.pipe.Load().funcs[name]
	if !ok {
		return nil, false
	}
	return f.fn, true
}

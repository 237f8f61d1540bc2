package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"eden/internal/compiler"
	"eden/internal/controller"
	"eden/internal/ctlproto"
	"eden/internal/enclave"
	"eden/internal/funcs"
)

// ctl-sync: an in-process controller and two enclaves, each served by a
// PersistentAgent over loopback TCP. One goroutine pushes small deltas,
// flaps an agent, and restarts an agent with a fresh enclave instance.
const (
	ctlAgents      = 2
	ctlBaseRules   = 48 // rules in the base policy
	ctlDeltaWindow = 8  // delta rules kept installed
	ctlQueueRate   = 1e9
	ctlQueueCap    = 1 << 20
	ctlOpTimeout   = 5 * time.Second
)

// ctlRound is the fixed op sequence of one round; every run attempts
// whole rounds.
var ctlRound = []string{"push", "push", "push", "flap", "push", "push", "push", "restart"}

// ctlModel is the benchmark's own record of what it pushed to every
// enclave.
type ctlModel struct {
	tables  []string                  // egress tables in order
	order   map[string][]enclave.Rule // rules per table, in match order
	funcs   []string
	scalars map[[2]string]int64
	arrays  map[[2]string][]int64
	queues  int
}

type ctlAgent struct {
	name      string
	enc       *enclave.Enclave
	agent     *controller.PersistentAgent
	connected atomic.Int64 // UnixNano of the latest registration
}

type ctlFixture struct {
	ctl    *controller.Controller
	agents [ctlAgents]*ctlAgent
	model  ctlModel
	next   int // next delta rule index
}

func ctlName(i int) string { return fmt.Sprintf("host%d", i) }

func (f *ctlFixture) startAgent(i int) {
	a := &ctlAgent{name: ctlName(i)}
	a.enc = enclave.New(enclave.Config{Name: a.name, Platform: "os", Clock: func() int64 { return time.Now().UnixNano() }})
	a.agent = controller.ServeEnclavePersistent(f.ctl.Addr(), a.name, a.enc, controller.ReconnectConfig{
		BackoffMin:  2 * time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		Heartbeat:   -1,
		CallTimeout: ctlOpTimeout,
		OnConnect:   func(int) { a.connected.Store(time.Now().UnixNano()) },
	})
	f.agents[i] = a
}

func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own parameter structs always marshal
	}
	return b
}

func ruleOp(op, table, pattern, fn string) controller.PolicyOp {
	return controller.PolicyOp{Op: op, Params: mustJSON(ctlproto.RuleParams{
		Dir: int(enclave.Egress), Table: table, Pattern: pattern, Func: fn})}
}

// ctlBasePolicy returns the base policy's structural ops and records it
// in the model: pias, message_wcmp and pulsar, their tables and rules.
func ctlBasePolicy(m *ctlModel) ([]controller.PolicyOp, error) {
	var ops []controller.PolicyOp
	m.order = map[string][]enclave.Rule{}
	for _, name := range []string{"message_wcmp", "pias", "pulsar"} {
		fn, err := funcs.Compile(name)
		if err != nil {
			return nil, err
		}
		ops = append(ops, controller.PolicyOp{Op: ctlproto.OpEnclaveInstall, Params: mustJSON(ctlproto.ToSpec(fn))})
		m.funcs = append(m.funcs, name)
	}
	for _, t := range []string{"route", "sched", "rate"} {
		ops = append(ops, controller.PolicyOp{Op: ctlproto.OpEnclaveCreateTable,
			Params: mustJSON(ctlproto.TableParams{Dir: int(enclave.Egress), Table: t})})
		m.tables = append(m.tables, t)
	}
	add := func(table, pattern, fn string) {
		ops = append(ops, ruleOp(ctlproto.OpEnclaveAddRule, table, pattern, fn))
		m.order[table] = append(m.order[table], enclave.Rule{Pattern: pattern, Func: fn})
	}
	add("route", "*", "message_wcmp")
	add("rate", "storage.*", "pulsar")
	add("sched", "*", "pias")
	for i := 3; i < ctlBaseRules; i++ {
		add("sched", fmt.Sprintf("b%d.*", i), "pias")
	}
	return ops, nil
}

// modelTx stages the model's functions, tables and rules as one
// transaction on e.
func modelTx(e *enclave.Enclave, m *ctlModel, fns map[string]*compiler.Func) *enclave.Tx {
	tx := e.Begin()
	for _, name := range m.funcs {
		tx.InstallFunc(fns[name])
	}
	for _, tb := range m.tables {
		tx.CreateTable(enclave.Egress, tb)
	}
	for _, tb := range m.tables {
		for _, r := range m.order[tb] {
			tx.AddRule(enclave.Egress, tb, r)
		}
	}
	return tx
}

// ctlGlobals are the base policy's global values, pushed through the
// RemoteEnclave API so the controller records them.
var ctlGlobals = []struct {
	fn, name string
	scalar   int64
	array    []int64
}{
	{"pias", "priorities", 0, []int64{10240, 1048576}},
	{"pias", "priovals", 0, []int64{6, 3}},
	{"message_wcmp", "total_weight", 4, nil},
	{"message_wcmp", "path_labels", 0, []int64{10, 20, 30}},
	{"message_wcmp", "path_weights", 0, []int64{1, 2, 1}},
	{"pulsar", "queue_map", 0, []int64{0, 0}},
}

func setupCtlSync(seed int64, traced bool) (fixture, error) {
	store := controller.NewPolicyStore()
	ctl, err := controller.ListenWithPolicies("127.0.0.1:0", store)
	if err != nil {
		return nil, err
	}
	ctl.SetResyncRetry(2*time.Millisecond, 8)
	f := &ctlFixture{ctl: ctl}
	f.model.scalars = map[[2]string]int64{}
	f.model.arrays = map[[2]string][]int64{}
	for i := range f.agents {
		f.startAgent(i)
	}
	if err := ctl.WaitForAgents(ctlAgents, ctlOpTimeout); err != nil {
		f.close()
		return nil, err
	}
	base, err := ctlBasePolicy(&f.model)
	if err != nil {
		f.close()
		return nil, err
	}
	for _, a := range f.agents {
		ctl.PushDelta(a.name, base)
	}
	for _, a := range f.agents {
		if err := f.waitConverged(a.name, 0); err != nil {
			f.close()
			return nil, err
		}
	}
	for _, a := range f.agents {
		if err := f.pushGlobalsAndQueue(a.name); err != nil {
			f.close()
			return nil, err
		}
	}
	for _, g := range ctlGlobals {
		if g.array != nil {
			f.model.arrays[[2]string{g.fn, g.name}] = g.array
		} else {
			f.model.scalars[[2]string{g.fn, g.name}] = g.scalar
		}
	}
	f.model.queues = 1
	for _, a := range f.agents {
		if err := f.waitConverged(a.name, 0); err != nil {
			f.close()
			return nil, err
		}
		if d := f.diff(a); d != "" {
			f.close()
			return nil, fmt.Errorf("base policy on %s: %s", a.name, d)
		}
	}
	return f, nil
}

// pushGlobalsAndQueue sets the base globals and adds the rate queue
// through the controller's enclave proxy.
func (f *ctlFixture) pushGlobalsAndQueue(name string) error {
	re, ok := f.ctl.Enclave(name)
	if !ok {
		return fmt.Errorf("%s not registered", name)
	}
	for _, g := range ctlGlobals {
		var err error
		if g.array != nil {
			err = re.UpdateGlobalArray(g.fn, g.name, g.array)
		} else {
			err = re.UpdateGlobal(g.fn, g.name, g.scalar)
		}
		if err != nil {
			return fmt.Errorf("%s: global %s.%s: %w", name, g.fn, g.name, err)
		}
	}
	return f.addQueue(name)
}

func (f *ctlFixture) addQueue(name string) error {
	re, ok := f.ctl.Enclave(name)
	if !ok {
		return fmt.Errorf("%s not registered", name)
	}
	if _, err := re.AddQueue(ctlQueueRate, ctlQueueCap); err != nil {
		return fmt.Errorf("%s: add queue: %w", name, err)
	}
	return nil
}

func (f *ctlFixture) close() {
	for _, a := range f.agents {
		if a != nil {
			a.agent.Close()
		}
	}
	f.ctl.Close()
}

// converged reports whether the controller sees the agent registered at
// least minConnects times and holding its intended policy.
func (f *ctlFixture) converged(name string, minConnects int) bool {
	st, ok := f.ctl.AgentStatus(name)
	return ok && st.Connects >= minConnects && st.ResyncErr == "" &&
		st.Generation == st.IntendedGeneration &&
		st.GlobalsSeq == st.IntendedGlobalsSeq
}

func (f *ctlFixture) waitConverged(name string, minConnects int) error {
	return waitFor(func() bool { return f.converged(name, minConnects) },
		fmt.Sprintf("%s to converge", name))
}

// waitFor polls cond: yielding at first, for the sub-millisecond cases,
// then sleeping.
func waitFor(cond func() bool, what string) error {
	t0 := time.Now()
	for !cond() {
		el := time.Since(t0)
		switch {
		case el > ctlOpTimeout:
			return fmt.Errorf("timed out waiting for %s", what)
		case el < 200*time.Microsecond:
			runtime.Gosched()
		default:
			time.Sleep(20 * time.Microsecond)
		}
	}
	return nil
}

// diff compares an enclave's tables, rule order, functions, globals and
// queues with the model and describes the first difference ("" if none).
func (f *ctlFixture) diff(a *ctlAgent) string {
	return ctlDiff(&f.model, a.enc)
}

func ctlDiff(m *ctlModel, e *enclave.Enclave) string {
	if got := e.Tables(enclave.Egress); !reflect.DeepEqual(got, m.tables) {
		return fmt.Sprintf("egress tables %v, pushed %v", got, m.tables)
	}
	if got := e.Tables(enclave.Ingress); len(got) != 0 {
		return fmt.Sprintf("ingress tables %v, pushed none", got)
	}
	for _, t := range m.tables {
		tb, _ := e.Table(enclave.Egress, t)
		if got := tb.Rules(); !reflect.DeepEqual(got, m.order[t]) {
			return fmt.Sprintf("table %s rules %v, pushed %v", t, got, m.order[t])
		}
	}
	got := e.InstalledFunctions()
	sort.Strings(got)
	want := append([]string(nil), m.funcs...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("functions %v, pushed %v", got, want)
	}
	for k, v := range m.scalars {
		if g, err := e.ReadGlobal(k[0], k[1]); err != nil || g != v {
			return fmt.Sprintf("global %s.%s = %d (%v), pushed %d", k[0], k[1], g, err, v)
		}
	}
	for k, v := range m.arrays {
		if g, err := e.ReadGlobalArray(k[0], k[1]); err != nil || !reflect.DeepEqual(g, v) {
			return fmt.Sprintf("global %s.%s = %v (%v), pushed %v", k[0], k[1], g, err, v)
		}
	}
	if got := e.NumQueues(); got != m.queues {
		return fmt.Sprintf("%d rate queues, added %d", got, m.queues)
	}
	return ""
}

// delta builds the next push: one new rule, and the oldest delta rule
// retired once the window is full. The model is updated to match.
func (f *ctlFixture) delta() []controller.PolicyOp {
	k := f.next
	f.next++
	pat := fmt.Sprintf("d%d.*", k)
	ops := []controller.PolicyOp{ruleOp(ctlproto.OpEnclaveAddRule, "sched", pat, "pias")}
	f.model.order["sched"] = append(f.model.order["sched"], enclave.Rule{Pattern: pat, Func: "pias"})
	if k >= ctlDeltaWindow {
		old := fmt.Sprintf("d%d.*", k-ctlDeltaWindow)
		ops = append(ops, ruleOp(ctlproto.OpEnclaveRemoveRule, "sched", old, ""))
		rs := f.model.order["sched"]
		for i, r := range rs {
			if r.Pattern == old {
				f.model.order["sched"] = append(rs[:i:i], rs[i+1:]...)
				break
			}
		}
	}
	return ops
}

// push sends one delta to both agents and returns the time until both
// enclaves published it.
func (f *ctlFixture) push(spans *spanLog, op uint64, parent int32) (time.Duration, error) {
	var before [ctlAgents]uint64
	for i, a := range f.agents {
		before[i] = a.enc.Generation()
	}
	ops := f.delta()
	sp := spans.begin(op, parent, "controller.PushDelta")
	t0 := time.Now()
	for _, a := range f.agents {
		f.ctl.PushDelta(a.name, ops)
	}
	spans.end(sp)
	sp = spans.begin(op, parent, "wait enclaves published")
	err := waitFor(func() bool {
		for i, a := range f.agents {
			if a.enc.Generation() == before[i] {
				return false
			}
		}
		return true
	}, "the push to land")
	d := time.Since(t0)
	spans.end(sp)
	return d, err
}

// flap drops agent i's connection, pushes a delta, and returns the time
// from the agent's re-registration until it caught up.
func (f *ctlFixture) flap(i int, spans *spanLog, op uint64, parent int32) (time.Duration, error) {
	a := f.agents[i]
	connects := a.agent.Connects()
	gen := a.enc.Generation()
	sp := spans.begin(op, parent, "controller.PersistentAgent.DropConnection")
	a.agent.DropConnection()
	spans.end(sp)
	ops := f.delta()
	for _, b := range f.agents {
		f.ctl.PushDelta(b.name, ops)
	}
	sp = spans.begin(op, parent, "wait re-registration")
	if err := waitFor(func() bool { return a.agent.Connects() > connects }, "re-registration"); err != nil {
		return 0, err
	}
	spans.end(sp)
	sp = spans.begin(op, parent, "wait resync")
	err := waitFor(func() bool { return a.enc.Generation() != gen }, "the resync")
	d := time.Since(time.Unix(0, a.connected.Load()))
	spans.end(sp)
	return d, err
}

// restart replaces agent i with a fresh enclave instance (a new boot
// epoch) and returns the time until the controller reports it converged.
func (f *ctlFixture) restart(i int, spans *spanLog, op uint64, parent int32) (time.Duration, error) {
	name := f.agents[i].name
	st, _ := f.ctl.AgentStatus(name)
	sp := spans.begin(op, parent, "controller.PersistentAgent.Close")
	f.agents[i].agent.Close()
	spans.end(sp)
	sp = spans.begin(op, parent, "restart until converged")
	t0 := time.Now()
	f.startAgent(i)
	err := f.waitConverged(name, st.Connects+1)
	spans.end(sp)
	return time.Since(t0), err
}

// run attempts whole rounds until the time is up. Rounds are grouped
// into slices of at least a second; the figures are the median slice's.
//
// The generating goroutine polls and checks between ops; it is locked to
// its thread so its CPU can be taken out of the program's.
func (f *ctlFixture) run(rc *runCtx) *outcome {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	o := &outcome{}
	var pushes, resyncs, restarts, slicePushP50, sliceRate, sliceCPU []float64
	t0 := time.Now()
	sliceStart, sliceOps, slicePushes := t0, 0, 0
	cpu0 := programCPU()
	for round := 0; round == 0 || time.Since(t0) < rc.dur; round++ {
		if !f.round(round, rc.spans, o, &pushes, &resyncs, &restarts) {
			return o
		}
		sliceOps += len(ctlRound)
		if el := time.Since(sliceStart); el >= time.Second || time.Since(t0) >= rc.dur {
			slicePushP50 = append(slicePushP50, median(pushes[slicePushes:]))
			sliceRate = append(sliceRate, float64(sliceOps)/el.Seconds())
			cpu1 := programCPU()
			sliceCPU = append(sliceCPU, float64((cpu1-cpu0).Nanoseconds())/1e3/float64(sliceOps))
			sliceStart, sliceOps, slicePushes = time.Now(), 0, len(pushes)
			cpu0 = cpu1
		}
	}
	o.opsPerSec = median(sliceRate)
	o.cpuPerOpUs = median(sliceCPU)
	o.latencyUs = median(slicePushP50) * 1e3
	o.addRef("ctl_push_ms_p50", median(pushes), "ms", len(pushes))
	o.addRef("ctl_push_ms_p99", quantile(pushes, 0.99), "ms", len(pushes))
	o.addRef("ctl_resync_ms_p50", median(resyncs), "ms", len(resyncs))
	o.addRef("ctl_restart_ms_p50", median(restarts), "ms", len(restarts))
	return o
}

// round runs one round's ops and checks both enclaves after each. It
// reports false when the run must stop.
func (f *ctlFixture) round(round int, spans *spanLog, o *outcome, pushes, resyncs, restarts *[]float64) bool {
	for _, kind := range ctlRound {
		op, root := spans.root("ctl " + kind)
		o.attempted++
		who := round % ctlAgents
		var d time.Duration
		var err error
		switch kind {
		case "push":
			d, err = f.push(spans, op, root)
			*pushes = append(*pushes, ms(d))
		case "flap":
			d, err = f.flap(who, spans, op, root)
			*resyncs = append(*resyncs, ms(d))
		case "restart":
			d, err = f.restart(who, spans, op, root)
			*restarts = append(*restarts, ms(d))
		}
		if err != nil {
			o.failf("round %d %s: %v", round, kind, err)
			return false
		}
		for _, a := range f.agents {
			if err := f.waitConverged(a.name, 0); err != nil {
				o.failf("round %d %s: %v", round, kind, err)
				return false
			}
		}
		for j, a := range f.agents {
			d := f.diff(a)
			if d == "" {
				continue
			}
			// The named fault: a restarted enclave comes back without
			// its rate queue, because queues bypass the policy store.
			// Count the op as failed, then re-add the queue so later
			// ops on this agent are judged on their own.
			if kind == "restart" && j == who && d == fmt.Sprintf("0 rate queues, added %d", f.model.queues) {
				o.failed++
				if err := f.addQueue(a.name); err != nil {
					o.failf("round %d: re-adding the queue: %v", round, err)
					return false
				}
				if d := f.diff(a); d != "" {
					o.failf("round %d: after re-adding the queue: %s: %s", round, a.name, d)
				}
				continue
			}
			o.failf("round %d %s: %s: %s", round, kind, a.name, d)
		}
		spans.end(root)
	}
	return true
}

// programCPU is the process's CPU time minus the calling thread's: the
// controller's and agents' work without the benchmark's own polling.
func programCPU() time.Duration {
	u, s := cpuTimes()
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return u + s
	}
	return u + s - time.Duration(ru.Utime.Nano()+ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

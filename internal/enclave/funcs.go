package enclave

import (
	"fmt"
	"sync"
	"sync/atomic"

	"eden/internal/compiler"
	"eden/internal/edenvm"
	"eden/internal/metrics"
	"eden/internal/packet"
	"eden/internal/qos"
	"eden/internal/trace"
)

// NativeFunc is a hard-coded Go implementation of an action function, used
// for the paper's native-vs-interpreted comparisons (§5.1: "a hard-coded
// function within the Eden enclave instead of using the interpreter"). It
// receives the same three state views an interpreted invocation would:
// the packet, the per-message state slots, and the global state (scalars
// plus arrays). The enclave applies the same concurrency model either way.
type NativeFunc func(pkt *packet.Packet, msg []int64, globals []int64, arrays [][]int64)

// installedFunc is one action function resident in the enclave, together
// with the authoritative state the runtime manages for it (§3.4.4: "the
// authoritative state is maintained in the enclave"). The same
// installedFunc value is shared by every pipeline snapshot that includes
// the function, so runtime state (globals, message entries) survives
// control-plane commits; its fields are guarded by per-function locks or
// atomics because the data path reads it without any enclave-wide lock.
type installedFunc struct {
	fn *compiler.Func
	// compiled is the closure-threaded form of fn.Prog, built once at
	// install time (commit path, under Enclave.mu) so the data path never
	// compiles. nil when the program uses something the closure backend
	// does not support — those invocations fall back to the interpreter.
	// Immutable after install.
	compiled *edenvm.Compiled
	// native is atomic because AttachNative may race the lock-free data
	// path.
	native atomic.Pointer[NativeFunc]

	// globalMu guards globals and arrays per the concurrency model.
	globalMu sync.RWMutex
	globals  []int64
	arrays   [][]int64

	// msgMu guards the message-state map; individual entries are guarded
	// by their own locks for the per-message concurrency class. Entry
	// lookup is the per-packet common case, so it takes only the read
	// lock; creation and eviction upgrade to the write lock.
	msgMu    sync.RWMutex
	msgState map[uint64]*msgEntry
	// msgOrder is the CLOCK eviction queue of message ids: entries are
	// queued at creation and evicted front-first, but an entry whose
	// reference bit is set (a lookup hit since it was queued) has the bit
	// cleared and is requeued instead, so cap pressure lands on messages
	// no packet has touched since their last pass, oldest first. Entries
	// already released (endMessage, the idle sweeper) are skipped when
	// popped and compacted away by sweepMsgState.
	msgOrder []uint64
	maxMsgs  int

	// msgLifetime reports that the function declared per-message state it
	// can actually reach (§3.4.2's lifetime annotation threaded through
	// the compiler metadata): only these functions join the pipeline's
	// msgFuncs set, receive endMessage cascades, and are swept.
	msgLifetime bool

	concurrency edenvm.Concurrency
	exclMu      sync.Mutex // serializes ConcurrencyExclusive invocations

	// Per-function registry counters (fn.<name>.*).
	invocations  *metrics.Counter
	traps        *metrics.Counter
	instructions *metrics.Counter
	// msgEvictions mirrors cap evictions to fn.<name>.msg_evictions;
	// allMsgEvictions is the enclave-wide func_msg_evictions counter.
	msgEvictions    *metrics.Counter
	allMsgEvictions *metrics.Counter
}

type msgEntry struct {
	mu    sync.Mutex
	slots []int64
	// touched is the qos.EpochSweep stamp of the last packet; written on
	// the lock-free lookup path, read by the idle sweeper.
	touched atomic.Int64
	// ref is the CLOCK reference bit: set by a lookup hit, cleared when
	// eviction requeues the entry. Epoch stamps are too coarse for this —
	// a message hit only within its creation epoch would look idle.
	ref atomic.Bool
}

// newInstalledFunc builds the runtime representation of a freshly
// verified function: zeroed global scalars (then defaults applied), empty
// arrays and message state, and the per-function registry counters.
func (e *Enclave) newInstalledFunc(fn *compiler.Func) *installedFunc {
	inst := &installedFunc{
		fn:              fn,
		globals:         make([]int64, len(fn.GlobalScalars)),
		arrays:          make([][]int64, len(fn.GlobalArrays)),
		msgState:        map[uint64]*msgEntry{},
		maxMsgs:         e.cfg.MaxMessages,
		msgLifetime:     fn.MsgLifetime() && fn.Prog.State.MsgAccess != edenvm.AccessNone,
		concurrency:     fn.Concurrency(),
		invocations:     e.reg.Counter("fn." + fn.Name + ".invocations"),
		traps:           e.reg.Counter("fn." + fn.Name + ".traps"),
		instructions:    e.reg.Counter("fn." + fn.Name + ".instructions"),
		msgEvictions:    e.reg.Counter("fn." + fn.Name + ".msg_evictions"),
		allMsgEvictions: e.stats.funcMsgEvictions,
	}
	copy(inst.globals, fn.GlobalDefaults)
	// Compile regardless of the enclave's selected backend: the cost is
	// control-plane time (install already verifies the bytecode), and the
	// fallback counter then reflects program compilability, not backend
	// selection.
	if c, err := edenvm.Compile(fn.Prog); err == nil {
		inst.compiled = c
	} else {
		e.stats.compileFallbacks.Add(1)
	}
	return inst
}

// InstallFunc installs a compiled action function (enclave API). Global
// scalar slots start at zero and arrays empty until the controller pushes
// state with UpdateGlobal/UpdateGlobalArray. An optional native
// implementation may be attached with AttachNative. Installation is a
// single-operation transaction: the bytecode is verified and the new
// snapshot published atomically (see build.installFunc).
func (e *Enclave) InstallFunc(fn *compiler.Func) error {
	return e.mutate(func(b *build) error { return b.installFunc(fn) })
}

// UninstallFunc removes a function and its state. Rules referencing it
// stop firing (their table entries are removed too).
func (e *Enclave) UninstallFunc(name string) error {
	return e.mutate(func(b *build) error { return b.uninstallFunc(name) })
}

// AttachNative registers a native implementation for an installed
// function. The pointer swap is atomic because in-flight Process calls
// read f.native without holding any enclave lock.
func (e *Enclave) AttachNative(name string, nf NativeFunc) error {
	f, ok := e.pipe.Load().funcs[name]
	if !ok {
		return fmt.Errorf("enclave: no function %q", name)
	}
	f.native.Store(&nf)
	return nil
}

// UpdateGlobal sets a global scalar by name (enclave API; this is how the
// controller pushes slowly changing state like priority thresholds).
func (e *Enclave) UpdateGlobal(fn, name string, value int64) error {
	f, slot, err := e.findGlobalScalar(fn, name)
	if err != nil {
		return err
	}
	f.globalMu.Lock()
	defer f.globalMu.Unlock()
	f.globals[slot] = value
	return nil
}

// ReadGlobal reads a global scalar by name.
func (e *Enclave) ReadGlobal(fn, name string) (int64, error) {
	f, slot, err := e.findGlobalScalar(fn, name)
	if err != nil {
		return 0, err
	}
	f.globalMu.RLock()
	defer f.globalMu.RUnlock()
	return f.globals[slot], nil
}

func (e *Enclave) findGlobalScalar(fn, name string) (*installedFunc, int, error) {
	f, ok := e.pipe.Load().funcs[fn]
	if !ok {
		return nil, 0, fmt.Errorf("enclave: no function %q", fn)
	}
	for i, n := range f.fn.GlobalScalars {
		if n == name {
			return f, i, nil
		}
	}
	return nil, 0, fmt.Errorf("enclave: function %q has no global scalar %q", fn, name)
}

// UpdateGlobalArray replaces a global array by name. The slice is copied.
func (e *Enclave) UpdateGlobalArray(fn, name string, values []int64) error {
	f, ok := e.pipe.Load().funcs[fn]
	if !ok {
		return fmt.Errorf("enclave: no function %q", fn)
	}
	for i, n := range f.fn.GlobalArrays {
		if n == name {
			cp := append([]int64(nil), values...)
			f.globalMu.Lock()
			f.arrays[i] = cp
			f.globalMu.Unlock()
			return nil
		}
	}
	return fmt.Errorf("enclave: function %q has no global array %q", fn, name)
}

// ReadGlobalArray returns a copy of a global array by name.
func (e *Enclave) ReadGlobalArray(fn, name string) ([]int64, error) {
	f, ok := e.pipe.Load().funcs[fn]
	if !ok {
		return nil, fmt.Errorf("enclave: no function %q", fn)
	}
	for i, n := range f.fn.GlobalArrays {
		if n == name {
			f.globalMu.RLock()
			defer f.globalMu.RUnlock()
			return append([]int64(nil), f.arrays[i]...), nil
		}
	}
	return nil, fmt.Errorf("enclave: function %q has no global array %q", fn, name)
}

// MsgState returns a copy of the per-message state slots a function keeps
// for a message, if any.
func (e *Enclave) MsgState(fn string, msgID uint64) ([]int64, bool) {
	f, ok := e.pipe.Load().funcs[fn]
	if !ok {
		return nil, false
	}
	f.msgMu.RLock()
	ent, ok := f.msgState[msgID]
	f.msgMu.RUnlock()
	if !ok {
		return nil, false
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	return append([]int64(nil), ent.slots...), true
}

func (f *installedFunc) entry(msgID uint64, stamp int64) *msgEntry {
	f.msgMu.RLock()
	ent, ok := f.msgState[msgID]
	f.msgMu.RUnlock()
	if ok {
		ent.hit(stamp)
		return ent
	}
	f.msgMu.Lock()
	defer f.msgMu.Unlock()
	ent, ok = f.msgState[msgID]
	if !ok {
		slots := make([]int64, len(f.fn.MsgFields))
		copy(slots, f.fn.MsgDefaults)
		ent = &msgEntry{slots: slots}
		ent.touched.Store(stamp)
		f.msgState[msgID] = ent
		f.msgOrder = append(f.msgOrder, msgID)
		if len(f.msgState) > f.maxMsgs {
			f.evictMsgLocked(msgID)
		}
	} else {
		ent.hit(stamp)
	}
	return ent
}

// hit records a lookup hit: the touch stamp and the reference bit. Both
// are loaded first so the common case — a busy message — does not write.
func (ent *msgEntry) hit(stamp int64) {
	if ent.touched.Load() != stamp {
		ent.touched.Store(stamp)
	}
	if !ent.ref.Load() {
		ent.ref.Store(true)
	}
}

// evictMsgLocked removes one tracked message other than keep, preferring
// unreferenced entries in queue order: candidates pop from the front of
// msgOrder; stale ids (already released) are dropped, and a candidate
// with its reference bit set is requeued with the bit cleared instead of
// dying. Two full passes guarantee an eviction — after the first, every
// survivor's bit is clear unless a packet hit it meanwhile. Caller holds
// msgMu.
func (f *installedFunc) evictMsgLocked(keep uint64) {
	for pops := 2*len(f.msgOrder) + 2; pops > 0 && len(f.msgOrder) > 0; pops-- {
		id := f.msgOrder[0]
		f.msgOrder = f.msgOrder[1:]
		ent, ok := f.msgState[id]
		if !ok {
			continue // already ended or idle-swept
		}
		if id == keep || ent.ref.Swap(false) {
			f.msgOrder = append(f.msgOrder, id)
			continue
		}
		delete(f.msgState, id)
		f.msgEvictions.Add(1)
		if f.allMsgEvictions != nil {
			f.allMsgEvictions.Add(1)
		}
		return
	}
}

func (f *installedFunc) endMessage(msgID uint64) {
	f.msgMu.Lock()
	delete(f.msgState, msgID)
	f.msgMu.Unlock()
}

// endMessages releases a batch of messages under one write lock (the
// sweeper's cascade from reclaimed flows).
func (f *installedFunc) endMessages(msgIDs []uint64) {
	if len(msgIDs) == 0 {
		return
	}
	f.msgMu.Lock()
	for _, id := range msgIDs {
		delete(f.msgState, id)
	}
	f.msgMu.Unlock()
}

// sweepMsgState reclaims message entries idle past the epoch clock's
// timeout — state for stage-assigned message ids the flow table never
// sees — and compacts the eviction queue's released slots. Returns
// entries scanned and reclaimed.
func (f *installedFunc) sweepMsgState(epochs qos.EpochSweep, now int64) (scanned, reclaimed int) {
	f.msgMu.Lock()
	defer f.msgMu.Unlock()
	for id, ent := range f.msgState {
		scanned++
		if epochs.Idle(ent.touched.Load(), now) {
			delete(f.msgState, id)
			reclaimed++
		}
	}
	// Drop queue slots whose entry is gone (ended, swept, or requeued
	// after an end/recreate cycle) so the queue tracks the live map.
	kept := f.msgOrder[:0]
	for _, id := range f.msgOrder {
		if _, ok := f.msgState[id]; ok {
			kept = append(kept, id)
		}
	}
	f.msgOrder = kept
	return scanned, reclaimed
}

// vmState is the pooled interpreter plus its scratch environment.
type vmState struct {
	vm  *edenvm.VM
	env edenvm.Env
}

// newVM builds a pooled interpreter. Without Config.Rand the VM draws
// from its own generator, and the pool drops VMs at every GC, so each new
// VM gets its own seed: with one fixed seed every fresh VM would replay
// the same draws and random choices would stop following their weights.
func (e *Enclave) newVM() *vmState {
	vm := edenvm.NewVM()
	vm.Fuel = e.cfg.Fuel
	vm.Seed(splitmix64(e.vmSeq.Add(1)))
	return &vmState{vm: vm}
}

// splitmix64 returns the i-th output of a splitmix64 generator: distinct,
// well-spread seeds from consecutive integers.
func splitmix64(i uint64) uint64 {
	x := i * 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// invoke executes one function against one packet under the
// function's concurrency class:
//
//   - parallel: message and global state are read-only; global state is
//     copied under RLock so the program sees a consistent snapshot even if
//     the controller updates mid-run (§3.4.4);
//   - per-message: one packet per message at a time (entry lock), global
//     under RLock;
//   - exclusive: one invocation at a time (exclMu + global write lock).
//
// Packet fields are copied in, and written back only if the program halts
// normally — a trapped invocation has no side effects (§3.4.3).
func (e *Enclave) invoke(f *installedFunc, pkt *packet.Packet, now int64, mode Mode) {
	e.stats.invocations.Add(1)
	f.invocations.Add(1)
	tr := e.cfg.Tracer
	if tr.Traces(pkt) {
		tr.Record(pkt, now, trace.KindInvoke, e.cfg.Name, f.fn.Name)
	}

	var ent *msgEntry
	if f.msgLifetime {
		ent = f.entry(pkt.Meta.MsgID, e.epochs.Epoch(now))
	}

	if mode == ModeNative {
		if nf := f.native.Load(); nf != nil {
			e.invokeNative(f, pkt, ent, *nf)
			return
		}
	}

	vs := e.vmPool.Get().(*vmState)
	defer e.vmPool.Put(vs)
	env := &vs.env
	env.Rand = e.cfg.Rand
	env.Clock = e.cfg.Clock

	// Packet vector: copy in.
	if cap(env.Packet) < len(f.fn.PktFields) {
		env.Packet = make([]int64, len(f.fn.PktFields))
	}
	env.Packet = env.Packet[:len(f.fn.PktFields)]
	for i, fd := range f.fn.PktFields {
		env.Packet[i] = pkt.Get(fd)
	}

	runAndWriteBack := func() {
		var t0 int64
		if e.interpNs != nil {
			t0 = e.cfg.WallClock()
		}
		var steps int
		var err error
		if c := f.compiled; c != nil && e.vmCompiled {
			steps, err = vs.vm.RunCompiled(c, env)
			e.stats.compiledInvocations.Add(1)
		} else {
			steps, err = vs.vm.Run(f.fn.Prog, env)
			e.stats.interpInvocations.Add(1)
		}
		if e.interpNs != nil {
			e.interpNs.Observe(e.cfg.WallClock() - t0)
		}
		e.stats.instructions.Add(int64(steps))
		f.instructions.Add(int64(steps))
		if err != nil {
			e.stats.traps.Add(1)
			f.traps.Add(1)
			if tr.Traces(pkt) {
				tr.Record(pkt, now, trace.KindTrap, e.cfg.Name, f.fn.Name+": "+err.Error())
			}
			return // trap: no side effects
		}
		for i, fd := range f.fn.PktFields {
			if fd.Writable() {
				pkt.Set(fd, env.Packet[i])
			}
		}
	}

	switch f.concurrency {
	case edenvm.ConcurrencyParallel:
		// Message and global state are verified read-only, so any number
		// of invocations may alias them; the read lock only excludes
		// controller updates mid-run, giving each invocation a consistent
		// view.
		f.globalMu.RLock()
		env.Global = f.globals
		env.Arrays = f.arrays
		if ent != nil {
			env.Msg = ent.slots
		} else {
			env.Msg = nil
		}
		runAndWriteBack()
		f.globalMu.RUnlock()

	case edenvm.ConcurrencyPerMessage:
		// "Only one packet from that message can be processed in
		// parallel" — the message entry lock enforces it.
		f.globalMu.RLock()
		env.Global = f.globals
		env.Arrays = f.arrays
		if ent != nil {
			ent.mu.Lock()
			env.Msg = ent.slots
			runAndWriteBack()
			ent.mu.Unlock()
		} else {
			env.Msg = nil
			runAndWriteBack()
		}
		f.globalMu.RUnlock()

	case edenvm.ConcurrencyExclusive:
		f.exclMu.Lock()
		f.globalMu.Lock()
		env.Global = f.globals
		env.Arrays = f.arrays
		if ent != nil {
			ent.mu.Lock()
			env.Msg = ent.slots
		} else {
			env.Msg = nil
		}
		runAndWriteBack()
		if ent != nil {
			ent.mu.Unlock()
		}
		f.globalMu.Unlock()
		f.exclMu.Unlock()
	}
}

func (e *Enclave) invokeNative(f *installedFunc, pkt *packet.Packet, ent *msgEntry, nf NativeFunc) {
	switch f.concurrency {
	case edenvm.ConcurrencyPerMessage:
		f.globalMu.RLock()
		if ent != nil {
			ent.mu.Lock()
			nf(pkt, ent.slots, f.globals, f.arrays)
			ent.mu.Unlock()
		} else {
			nf(pkt, nil, f.globals, f.arrays)
		}
		f.globalMu.RUnlock()
	case edenvm.ConcurrencyExclusive:
		f.exclMu.Lock()
		f.globalMu.Lock()
		var slots []int64
		if ent != nil {
			ent.mu.Lock()
			slots = ent.slots
		}
		nf(pkt, slots, f.globals, f.arrays)
		if ent != nil {
			ent.mu.Unlock()
		}
		f.globalMu.Unlock()
		f.exclMu.Unlock()
	default:
		f.globalMu.RLock()
		var slots []int64
		if ent != nil {
			ent.mu.Lock()
			slots = append(slots, ent.slots...)
			ent.mu.Unlock()
		}
		nf(pkt, slots, f.globals, f.arrays)
		f.globalMu.RUnlock()
	}
}

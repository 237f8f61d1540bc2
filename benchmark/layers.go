package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"eden/internal/compiler"
	"eden/internal/ctlproto"
	"eden/internal/edenvm"
	"eden/internal/enclave"
	"eden/internal/experiments"
	"eden/internal/funcs"
	"eden/internal/netsim"
	"eden/internal/packet"
	"eden/internal/trace"
	"eden/internal/udpnet"
)

// measureLayers runs the isolated per-layer timings on inputs generated
// from seed and returns the per-layer metrics. Every traced run measures
// every layer, whichever workload it traced. It also prints the
// reconcile lines: the per-packet sum of layer costs along a packet's path
// next to the measured per-packet CPU time.
func measureLayers(seed int64, w io.Writer) (map[string]metric, error) {
	m := map[string]metric{}
	steps := []struct {
		name string
		fn   func(int64, map[string]metric, io.Writer) error
	}{
		{"udp", udpLayers},
		{"enclave", enclaveLayers},
		{"edenvm", vmLayers},
		{"sim", simLayers},
		{"ctl", ctlLayers},
	}
	for _, s := range steps {
		t0 := time.Now()
		if err := s.fn(seed, m, w); err != nil {
			return nil, fmt.Errorf("%s layers: %w", s.name, err)
		}
		fmt.Fprintf(w, "layer timings %-8s %.2fs\n", s.name, time.Since(t0).Seconds())
	}
	return m, nil
}

// perOp times fn over n calls and returns ns per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func nsMetric(v float64) metric { return metric{v, "ns"} }

// --- udp-raw path: socket, codec, enclave, udpnet -------------------

func udpLayers(seed int64, m map[string]metric, w io.Writer) error {
	plan := newUDPPlan(seed)
	f := &udpFixture{plan: plan, ipA: packet.MustParseIP("10.0.0.1"), ipB: packet.MustParseIP("10.0.0.2")}
	f.initRing()
	// Encoded frames of the plan's first packets, after the sender's
	// enclave (so they carry the VLAN tag they carry on the wire).
	clock := func() int64 { return time.Now().UnixNano() }
	sendOS := enclave.New(enclave.Config{Name: "sender-os", Platform: "os", Clock: clock})
	if err := funcs.InstallPIAS(sendOS, "sched", "udp.*", udpPIASThresholds, udpPIASPrios); err != nil {
		return err
	}
	recvOS := enclave.New(enclave.Config{Name: "receiver-os", Platform: "os", Clock: clock})
	if err := installFirewall(recvOS, udpFwPort); err != nil {
		return err
	}
	const nFrames = 1 << 12
	frames := make([][]byte, nFrames)
	pkts := make([]packet.Packet, nFrames)
	for i := range frames {
		pk := f.fill(uint64(i), udpSmall)
		pkts[i] = *pk
		pkts[i].Payload = append([]byte(nil), pk.Payload...)
	}
	var egressNs, ingressNs float64
	{
		scratch := make([]packet.Packet, nFrames)
		copy(scratch, pkts)
		egressNs = perOp(nFrames, func(i int) {
			sendOS.Process(enclave.Egress, &scratch[i], clock())
			if e := plan.entries[i]; e.last {
				sendOS.EndMessage(scratch[i].Meta.MsgID)
			}
		})
		for i := range frames {
			frames[i] = udpnet.AppendPacket(nil, &scratch[i])
		}
		copy(scratch, pkts)
		ingressNs = perOp(nFrames, func(i int) { recvOS.Process(enclave.Ingress, &scratch[i], clock()) })
	}
	m["enclave.egress_ns"] = nsMetric(egressNs)
	m["enclave.ingress_ns"] = nsMetric(ingressNs)

	const codecN = 1 << 18
	buf := make([]byte, 0, 2048)
	enc := perOp(codecN, func(i int) { buf = udpnet.AppendPacket(buf[:0], &pkts[i%nFrames]) })
	var dec udpnet.Decoder
	var out packet.Packet
	var decErr error
	decNs := perOp(codecN, func(i int) {
		if err := dec.DecodePacket(frames[i%nFrames], &out); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("decode: %w", decErr)
	}
	m["codec.encode_ns"] = nsMetric(enc)
	m["codec.decode_ns"] = nsMetric(decNs)

	sendNs, recvNs, err := socketTimings(frames)
	if err != nil {
		return err
	}
	m["socket.send_ns"] = nsMetric(sendNs)
	m["socket.recv_ns"] = nsMetric(recvNs)

	// The udpnet stream, untraced, read through its counters.
	fx, err := setupUDPRaw(seed, false)
	if err != nil {
		return err
	}
	uf := fx.(*udpFixture)
	type snap struct {
		rxDgrams, rxWakes, txDgrams, txFlushes, overflow, poolAllocs int64
		mallocs                                                      uint64
		user, sys                                                    time.Duration
		sent                                                         int64
	}
	take := func() snap {
		r, s := uf.recv.Metrics(), uf.send.Metrics()
		var st snap
		st.rxDgrams = r.Counter("rx_datagrams").Load()
		st.rxWakes = r.Counter("rx_wakes").Load()
		st.txDgrams = s.Counter("tx_datagrams").Load()
		st.txFlushes = s.Counter("tx_flushes").Load()
		st.overflow = r.Counter("rx_overflow_drops").Load()
		st.poolAllocs = r.Counter("pool_buf_allocs").Load() + r.Counter("pool_pkt_allocs").Load() +
			s.Counter("pool_buf_allocs").Load() + s.Counter("pool_pkt_allocs").Load()
		st.mallocs, _ = goAllocs()
		st.user, st.sys = cpuTimes()
		st.sent = uf.sent
		return st
	}
	o := &outcome{}
	a := take()
	uf.stream(o, nil, udpSmall, 0, time.Now().Add(1500*time.Millisecond))
	b := take()
	uf.close()
	if len(o.errs) > 0 {
		return fmt.Errorf("udp stream: %s", o.errs[0])
	}
	pk := float64(b.sent - a.sent)
	cpu := float64((b.user - a.user) + (b.sys - a.sys))
	m["udpnet.pkts_per_rx_wake"] = metric{float64(b.rxDgrams-a.rxDgrams) / float64(b.rxWakes-a.rxWakes), "pkts"}
	m["udpnet.pkts_per_tx_flush"] = metric{float64(b.txDgrams-a.txDgrams) / float64(b.txFlushes-a.txFlushes), "pkts"}
	m["udpnet.rx_overflow_drops"] = metric{float64(b.overflow - a.overflow), "count"}
	m["udpnet.pool_allocs_per_pkt"] = metric{float64(b.poolAllocs-a.poolAllocs) / pk, "allocs/pkt"}
	m["udpnet.go_allocs_per_pkt"] = metric{float64(b.mallocs-a.mallocs) / pk, "allocs/pkt"}
	m["udpnet.cpu_ns_per_pkt"] = nsMetric(cpu / pk)
	m["udpnet.sys_cpu_share"] = metric{float64(b.sys-a.sys) / cpu, "ratio"}
	path := sendNs + recvNs + enc + decNs + egressNs + ingressNs
	m["udpnet.unaccounted_ns_per_pkt"] = nsMetric(cpu/pk - path)
	fmt.Fprintf(w, "reconcile udp-raw: cpu %.0f ns/pkt = socket send %.0f + recv %.0f + codec enc %.0f + dec %.0f + enclave egress %.0f + ingress %.0f + unaccounted %.0f\n",
		cpu/pk, sendNs, recvNs, enc, decNs, egressNs, ingressNs, cpu/pk-path)

	// One-way latency from the nodes' own tracer: tx on the sender to rx
	// on the receiver, per sampled packet.
	fx, err = setupUDPRaw(seed, true)
	if err != nil {
		return err
	}
	uf = fx.(*udpFixture)
	uf.stream(o, nil, udpSmall, 0, time.Now().Add(300*time.Millisecond))
	uf.close()
	tx := map[uint64]int64{}
	var oneWay []float64
	for _, ev := range uf.tracer.Events() {
		switch {
		case ev.Kind == trace.KindTx && ev.Node == "udpnet.10.0.0.1":
			tx[ev.Pkt] = ev.Time
		case ev.Kind == trace.KindRx && ev.Node == "udpnet.10.0.0.2":
			if t, ok := tx[ev.Pkt]; ok {
				oneWay = append(oneWay, float64(ev.Time-t)/1e3)
			}
		}
	}
	if len(oneWay) == 0 {
		return fmt.Errorf("tracer recorded no tx/rx pairs")
	}
	m["udpnet.one_way_us_p50"] = metric{median(oneWay), "us"}
	return nil
}

// socketTimings times std UDP sends and receives of the given frames on
// loopback: batches are written, then read back, each half timed alone.
func socketTimings(frames [][]byte) (sendNs, recvNs float64, err error) {
	a, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, err
	}
	defer a.Close()
	b, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, 0, err
	}
	defer b.Close()
	_ = b.SetReadBuffer(1 << 20) // best effort, like udpnet's; a batch fits the default
	to := b.LocalAddr().(*net.UDPAddr).AddrPort()
	buf := make([]byte, 2048)
	const batch, rounds = 128, 200
	var sendT, recvT time.Duration
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := a.WriteToUDPAddrPort(frames[(r*batch+i)%len(frames)], to); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		for i := 0; i < batch; i++ {
			if _, _, err := b.ReadFromUDPAddrPort(buf); err != nil {
				return 0, 0, err
			}
		}
		recvT += time.Since(t1)
		sendT += t1.Sub(t0)
	}
	n := float64(batch * rounds)
	return float64(sendT.Nanoseconds()) / n, float64(recvT.Nanoseconds()) / n, nil
}

// --- enclave-mix path: stage, flow state, match, VM ------------------

func enclaveLayers(seed int64, m map[string]metric, w io.Writer) error {
	t := newMixTrace(seed)
	const warm, timed = 1 << 18, 600 * time.Millisecond
	// rate runs worker 0's share (and worker 1's when both) on a fresh
	// fixture: one untimed warm-up pass, then a timed run.
	rate := func(policy func(*enclave.Enclave) error, tr *trace.Tracer, native, dry bool, workers int) (float64, *mixFixture, mixRun, error) {
		f, err := newMixFixture(t, tr, policy)
		if err != nil {
			return 0, nil, mixRun{}, err
		}
		f.dry = dry
		if native {
			for _, name := range f.enc.InstalledFunctions() {
				if err := f.enc.AttachNative(name, func(*packet.Packet, []int64, []int64, [][]int64) {}); err != nil {
					return 0, nil, mixRun{}, err
				}
			}
			f.enc.SetMode(enclave.ModeNative)
		}
		ws := t.workers[:workers]
		for _, wk := range ws {
			f.process(wk, warm, false, nil)
		}
		r := f.drive(ws, timed, false, false, nil, &outcome{})
		return float64(r.pkts) / r.elapsed.Seconds(), f, r, nil
	}
	nsPer := func(pps float64) float64 { return 1e9 / pps }

	harness, _, _, err := rate(nil, nil, false, true, 1)
	if err != nil {
		return err
	}
	empty, _, _, err := rate(nil, nil, false, false, 1)
	if err != nil {
		return err
	}
	native, _, _, err := rate(mixPolicy, nil, true, false, 1)
	if err != nil {
		return err
	}
	m0, _ := goAllocs()
	full1, f1, r1, err := rate(mixPolicy, nil, false, false, 1)
	if err != nil {
		return err
	}
	m1, _ := goAllocs()
	traced, _, _, err := rate(mixPolicy, trace.NewTracerEvery(1<<12, 64), false, false, 1)
	if err != nil {
		return err
	}
	_, gc0 := goAllocs()
	full2, _, r2, err := rate(mixPolicy, nil, false, false, 2)
	if err != nil {
		return err
	}
	_, gc1 := goAllocs()

	st := f1.enc.Stats()
	flowstate := nsPer(empty) - nsPer(harness)
	match := nsPer(native) - nsPer(empty)
	exec := nsPer(full1) - nsPer(native)
	m["enclave.flowstate_ns"] = nsMetric(flowstate)
	m["enclave.match_ns"] = nsMetric(match)
	m["enclave.exec_ns"] = nsMetric(exec)
	m["enclave.scaling_2w"] = metric{full2 / full1, "ratio"}
	m["enclave.instructions_per_pkt"] = metric{float64(st.Instructions) / float64(st.Packets), "count"}
	// m0..m1 spans the warm-up too, so divide by every packet processed.
	m["enclave.go_allocs_per_pkt"] = metric{float64(m1-m0) / float64(r1.pkts+warm), "allocs/pkt"}
	m["enclave.gc_cycles"] = metric{float64(gc1 - gc0), "count"}
	m["enclave.tracer_on_ratio"] = metric{traced / full1, "ratio"}

	// Stage tagging, per tagged message, on the trace's messages.
	stg, err := newMixStage()
	if err != nil {
		return err
	}
	msgs := t.workers[0].msgs
	tagNs := perOp(1<<17, func(i int) { stg.Tag(msgs[i%len(msgs)].stageMessage()) })
	m["stage.tag_ns"] = nsMetric(tagNs)

	// Reconcile: CPU per packet in the two-worker run against the layer
	// costs (tagging amortized over the packets of tagged messages).
	var tagged, pkts int
	for _, wk := range t.workers {
		for _, p := range wk.pkts {
			pkts++
			if p.first && wk.tagged[p.msg] {
				tagged++
			}
		}
	}
	cpuPer := float64(r2.cpu.Nanoseconds()) / float64(r2.pkts)
	tagPer := tagNs * float64(tagged) / float64(pkts)
	setup := nsPer(harness) - tagPer
	sum := tagPer + setup + flowstate + match + exec
	m["enclave.unaccounted_ns_per_pkt"] = nsMetric(cpuPer - sum)
	fmt.Fprintf(w, "reconcile enclave-mix: cpu %.0f ns/pkt = stage tag %.0f + packet set-up %.0f + flow state %.0f + match %.0f + exec %.0f + unaccounted %.0f\n",
		cpuPer, tagPer, setup, flowstate, match, exec, cpuPer-sum)

	// Commits: idle, and the whole base policy as one transaction.
	fi, err := newMixFixture(t, nil, mixPolicy)
	if err != nil {
		return err
	}
	var lat []float64
	for k := 0; k < 300; k++ {
		c0 := time.Now()
		if err := fi.applyCommit(k); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(c0).Nanoseconds())/1e3)
	}
	m["enclave.commit_idle_us"] = metric{median(lat), "us"}

	var model ctlModel
	if _, err := ctlBasePolicy(&model); err != nil {
		return err
	}
	fns := map[string]*compiler.Func{}
	for _, name := range model.funcs {
		if fns[name], err = funcs.Compile(name); err != nil {
			return err
		}
	}
	lat = lat[:0]
	for k := 0; k < 50; k++ {
		e := enclave.New(enclave.Config{Name: "replay", Clock: func() int64 { return 0 }})
		c0 := time.Now()
		if _, err := modelTx(e, &model, fns).Commit(); err != nil {
			return err
		}
		lat = append(lat, float64(time.Since(c0).Nanoseconds())/1e3)
	}
	m["enclave.replay_commit_us"] = metric{median(lat), "us"}
	return nil
}

// --- edenvm: both backends on the base functions ----------------------

func vmLayers(seed int64, m map[string]metric, w io.Writer) error {
	t := newMixTrace(seed)
	wk := t.workers[0]
	const nPkts = 1 << 12
	globals := map[string]map[string]any{
		"pias":         {"priorities": mixThresholds, "priovals": mixPrios},
		"message_wcmp": {"total_weight": int64(4), "path_labels": mixLabels, "path_weights": mixWeights},
		"pulsar":       {"queue_map": []int64{0, 0}},
	}
	for _, name := range []string{"pias", "message_wcmp", "pulsar"} {
		fn, err := funcs.Compile(name)
		if err != nil {
			return err
		}
		c, err := edenvm.Compile(fn.Prog)
		if err != nil {
			return err
		}
		envs := make([]edenvm.Env, nPkts)
		for i := range envs {
			d := wk.pkts[i]
			pk := packet.New(1, 2, 3, 4, int(d.size))
			if wk.tagged[d.msg] {
				sm := wk.msgs[d.msg].stageMessage()
				pk.Meta.MsgType, pk.Meta.MsgSize, pk.Meta.Tenant = sm.Type, sm.Size, sm.Tenant
			}
			envs[i] = vmEnv(fn, pk, globals[name])
		}
		vm := edenvm.NewVM()
		var runErr error
		const n = 1 << 18
		compiled := perOp(n, func(i int) {
			if _, err := vm.RunCompiled(c, &envs[i%nPkts]); err != nil {
				runErr = err
			}
		})
		interp := perOp(n, func(i int) {
			if _, err := vm.Run(fn.Prog, &envs[i%nPkts]); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return fmt.Errorf("%s: %w", name, runErr)
		}
		m["edenvm.run_ns."+name] = nsMetric(compiled)
		m["edenvm.interp_ns."+name] = nsMetric(interp)
	}

	// Loading shipped functions, and compiling them from source.
	var model ctlModel
	if _, err := ctlBasePolicy(&model); err != nil {
		return err
	}
	var specs []ctlproto.FuncSpec
	for _, name := range model.funcs {
		fn, err := funcs.Compile(name)
		if err != nil {
			return err
		}
		specs = append(specs, ctlproto.ToSpec(fn))
	}
	var load, comp []float64
	for k := 0; k < 30; k++ {
		t0 := time.Now()
		for _, s := range specs {
			if _, err := ctlproto.FromSpec(s); err != nil {
				return err
			}
		}
		load = append(load, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		for _, name := range model.funcs {
			if _, err := funcs.Compile(name); err != nil {
				return err
			}
		}
		comp = append(comp, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["edenvm.load_us"] = metric{median(load), "us"}
	m["compiler.compile_us"] = metric{median(comp), "us"}
	return nil
}

// vmEnv builds an invocation environment the way the enclave does: the
// packet vector from the function's packet fields, message slots at their
// defaults, and the given globals by name.
func vmEnv(fn *compiler.Func, pk *packet.Packet, globals map[string]any) edenvm.Env {
	var env edenvm.Env
	for _, fd := range fn.PktFields {
		env.Packet = append(env.Packet, pk.Get(fd))
	}
	env.Msg = append([]int64(nil), fn.MsgDefaults...)
	env.Global = append([]int64(nil), fn.GlobalDefaults...)
	for i, name := range fn.GlobalScalars {
		if v, ok := globals[name].(int64); ok {
			env.Global[i] = v
		}
	}
	for _, name := range fn.GlobalArrays {
		v, _ := globals[name].([]int64)
		env.Arrays = append(env.Arrays, append([]int64(nil), v...))
	}
	return env
}

// --- sim-fig9: event loop and a CPU profile of one configuration -------

// simHeapDepth approximates the event heap's depth in a fig9 trial.
const simHeapDepth = 256

func simLayers(seed int64, m map[string]metric, w io.Writer) error {
	sim := netsim.New(seed)
	const far = netsim.Time(1) << 60
	for i := 0; i < simHeapDepth; i++ {
		sim.At(far+netsim.Time(i), func() {})
	}
	const events = 1 << 20
	left := events
	var tick func()
	tick = func() {
		if left--; left > 0 {
			sim.After(1+netsim.Time(left%997), tick)
		}
	}
	sim.At(0, tick)
	t0 := time.Now()
	sim.Run(far - 1)
	m["netsim.event_ns"] = nsMetric(float64(time.Since(t0).Nanoseconds()) / events)

	dir := filepath.Join(".bench_build", "profiles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("sim-fig9-seed%d.pprof", seed))
	pf, err := os.Create(path)
	if err != nil {
		return err
	}
	m0, _ := goAllocs()
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	experiments.RunFig9(fig9Config(seed*1000 + 1))
	pprof.StopCPUProfile()
	m1, _ := goAllocs()
	if err := pf.Close(); err != nil {
		return err
	}
	m["sim.go_allocs"] = metric{float64(m1 - m0), "count"}
	byPkg, err := profileByPackage(path)
	if err != nil {
		return err
	}
	for _, p := range simProfilePackages {
		m["sim.cpu_ms."+p] = metric{byPkg[p], "ms"}
	}
	fmt.Fprintf(w, "profile %s: ms by package %v\n", path, byPkg)
	return nil
}

// simProfilePackages are the buckets sim.cpu_ms.* reports; "other" is
// every package not named.
var simProfilePackages = []string{"netsim", "transport", "enclave", "edenvm", "apps", "runtime", "other"}

// profileByPackage folds a CPU profile's self (flat) time by package
// with go tool pprof.
func profileByPackage(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldProfileTop(out)
}

// foldProfileTop parses `pprof -top -unit=ms` rows ("12.5ms 3% 40% 20ms
// 5% pkg.Func") into flat milliseconds per package bucket.
func foldProfileTop(out []byte) (map[string]float64, error) {
	by := map[string]float64{}
	for _, p := range simProfilePackages {
		by[p] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := 0
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		rows++
		by[profileBucket(strings.Join(f[5:], " "))] += v
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof printed no samples")
	}
	return by, nil
}

// profileBucket maps a function name to its sim.cpu_ms bucket.
func profileBucket(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(fn, "eden/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, p := range simProfilePackages {
			if p == pkg {
				return p
			}
		}
	}
	return "other"
}

// --- ctl-sync: ctlproto round trip and controller resync counters -----

func ctlLayers(seed int64, m map[string]metric, w io.Writer) error {
	fx, err := setupCtlSync(seed, false)
	if err != nil {
		return err
	}
	f := fx.(*ctlFixture)
	defer f.close()
	re, ok := f.ctl.Enclave(f.agents[0].name)
	if !ok {
		return fmt.Errorf("%s not registered", f.agents[0].name)
	}
	var rtt []float64
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		if _, err := re.Generation(); err != nil {
			return err
		}
		rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	m["ctlproto.rtt_us"] = metric{median(rtt), "us"}

	reg := f.ctl.Metrics()
	names := []string{"resync_ops", "resync_bytes", "resyncs_delta", "resyncs_full", "resync_retries"}
	before := map[string]int64{}
	for _, n := range names {
		before[n] = reg.Counter(n).Load()
	}
	o := f.run(&runCtx{dur: time.Second})
	if len(o.errs) > 0 {
		return fmt.Errorf("ctl run: %s", o.errs[0])
	}
	d := map[string]float64{}
	for _, n := range names {
		d[n] = float64(reg.Counter(n).Load() - before[n])
	}
	resyncs := d["resyncs_delta"] + d["resyncs_full"]
	m["controller.ops_per_resync"] = metric{d["resync_ops"] / resyncs, "ops"}
	m["controller.bytes_per_resync"] = metric{d["resync_bytes"] / resyncs, "bytes"}
	m["controller.resyncs_full"] = metric{d["resyncs_full"], "count"}
	m["controller.resync_retries"] = metric{d["resync_retries"], "count"}
	return nil
}

package enclave

import (
	"testing"

	"eden/internal/compiler"
	"eden/internal/packet"
)

// TestGotoTable exercises §3.4.2's table redirection: a function in the
// first table routes suspicious traffic to a later inspection table,
// skipping the accounting table between them.
func TestGotoTable(t *testing.T) {
	e := testEnclave(t)
	// Table 0: classify — suspicious dst port jumps to table 2.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(e.InstallFunc(compiler.MustCompile("steer", `
fun (p, m, g) ->
    if p.dst_port = 23 then p.goto_table <- 2
`)))
	// Table 1: accounting (must be skipped for suspicious traffic).
	must(e.InstallFunc(compiler.MustCompile("acct", `
global count : int
fun (p, m, g) ->
    g.count <- g.count + 1
`)))
	// Table 2: inspection — drop.
	must(e.InstallFunc(compiler.MustCompile("inspect", `
fun (p, m, g) ->
    p.drop <- 1
`)))
	for i, fn := range []string{"steer", "acct", "inspect"} {
		name := []string{"t0", "t1", "t2"}[i]
		if _, err := e.CreateTable(Egress, name); err != nil {
			t.Fatal(err)
		}
		must(e.AddRule(Egress, name, Rule{Pattern: "*", Func: fn}))
	}

	// Normal traffic: passes steer, counted, inspected (dropped by t2!).
	// Give the inspection table a narrower pattern so normal traffic
	// survives.
	must(e.RemoveRule(Egress, "t2", "*"))
	must(e.AddRule(Egress, "t2", Rule{Pattern: "suspicious.*", Func: "inspect"}))

	norm := mkPkt(100)
	norm.Meta.Class = "app.r.c"
	norm.Meta.MsgID = 1
	if v := e.Process(Egress, norm, 0); v.Drop {
		t.Fatal("normal traffic dropped")
	}
	if n, _ := e.ReadGlobal("acct", "count"); n != 1 {
		t.Errorf("normal traffic not counted: %d", n)
	}

	// Suspicious traffic (port 23): steered directly to t2's pattern?
	// goto_table skips t1, so the count must not increase even though
	// the packet passes through the pipeline.
	sus := packet.New(1, 2, 999, 23, 100)
	sus.Meta.Class = "suspicious.r.c"
	sus.Meta.MsgID = 2
	if v := e.Process(Egress, sus, 0); !v.Drop {
		t.Fatal("suspicious traffic not dropped by inspection table")
	}
	if n, _ := e.ReadGlobal("acct", "count"); n != 1 {
		t.Errorf("accounting table not skipped: count %d", n)
	}
}

func TestGotoTableBackwardStops(t *testing.T) {
	e := testEnclave(t)
	if err := e.InstallFunc(compiler.MustCompile("loopy", `
fun (p, m, g) ->
    p.goto_table <- 0
`)); err != nil {
		t.Fatal(err)
	}
	if err := e.InstallFunc(compiler.MustCompile("count", `
global n : int
fun (p, m, g) ->
    g.n <- g.n + 1
`)); err != nil {
		t.Fatal(err)
	}
	e.CreateTable(Egress, "a")
	e.CreateTable(Egress, "b")
	e.AddRule(Egress, "a", Rule{Pattern: "*", Func: "loopy"})
	e.AddRule(Egress, "b", Rule{Pattern: "*", Func: "count"})
	p := mkPkt(10)
	p.Meta.Class = "x.y.z"
	p.Meta.MsgID = 1
	e.Process(Egress, p, 0) // must terminate (no loop) and skip table b
	if n, _ := e.ReadGlobal("count", "n"); n != 0 {
		t.Errorf("backward goto should stop the pipeline, count=%d", n)
	}
}

func TestToControllerVerdict(t *testing.T) {
	e := testEnclave(t)
	if err := e.InstallFunc(compiler.MustCompile("mirror", `
fun (p, m, g) ->
    if p.tcp_flags % 2 = 1 then p.to_controller <- 1
`)); err != nil {
		t.Fatal(err)
	}
	e.CreateTable(Egress, "t")
	e.AddRule(Egress, "t", Rule{Pattern: "*", Func: "mirror"})

	fin := mkPkt(0)
	fin.TCPHdr.Flags = packet.FlagFIN
	fin.Meta.Class = "a.b.c"
	fin.Meta.MsgID = 1
	if v := e.Process(Egress, fin, 0); !v.ToController {
		t.Error("FIN not mirrored to controller")
	}
	data := mkPkt(100)
	data.Meta.Class = "a.b.c"
	data.Meta.MsgID = 2
	if v := e.Process(Egress, data, 0); v.ToController {
		t.Error("data mirrored to controller")
	}
}

// TestFuelLimit shows the §6 cycle-budget knob: with a tiny fuel budget
// an expensive function traps (and has no effect), but packets keep
// flowing — enforcement fails open, the enclave is never wedged.
func TestFuelLimit(t *testing.T) {
	var now int64
	e := New(Config{Name: "fuel", Clock: func() int64 { now++; return now }, Fuel: 16})
	if err := e.InstallFunc(compiler.MustCompile("spin", `
fun (p, m, g) ->
    let rec spin i = if i = 0 then 0 else spin (i - 1)
    p.priority <- spin 1000
`)); err != nil {
		t.Fatal(err)
	}
	e.CreateTable(Egress, "t")
	e.AddRule(Egress, "t", Rule{Pattern: "*", Func: "spin"})
	p := mkPkt(10)
	p.Meta.Class = "a.b.c"
	p.Meta.MsgID = 1
	v := e.Process(Egress, p, 0)
	if v.Drop {
		t.Error("fuel exhaustion dropped the packet")
	}
	if p.HasVLAN {
		t.Error("trapped function left side effects")
	}
	if e.Stats().Traps != 1 {
		t.Errorf("traps = %d", e.Stats().Traps)
	}
}

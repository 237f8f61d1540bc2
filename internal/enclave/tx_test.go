package enclave

import (
	"strings"
	"sync"
	"testing"
	"time"

	"eden/internal/compiler"
	"eden/internal/edenvm"
	"eden/internal/packet"
)

// compileT compiles source or fails the test.
func compileT(t *testing.T, name, src string) *compiler.Func {
	t.Helper()
	f, err := compiler.Compile(name, src)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return f
}

// TestProcessDoesNotTakeEnclaveMu is the direct proof of the lock-free
// data path: with the control-plane mutex held, Process must still
// complete. Under the old design this deadlocks (Process took a read
// lock on the same mutex).
func TestProcessDoesNotTakeEnclaveMu(t *testing.T) {
	e := testEnclave(t)
	installPIAS(t, e)

	e.mu.Lock()
	done := make(chan Verdict, 1)
	go func() {
		p := mkPkt(1400)
		p.Meta.Class = "app.r1.DATA"
		p.Meta.MsgID = 1
		done <- e.Process(Egress, p, 1)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Process blocked while control-plane mutex was held")
	}
	e.mu.Unlock()
}

// TestTxInstallsWholePolicyAtomically stages a complete policy (table +
// function + rule) and checks none of it is visible before Commit, all of
// it after, with the generation advancing exactly once.
func TestTxInstallsWholePolicyAtomically(t *testing.T) {
	e := testEnclave(t)
	gen0 := e.Generation()

	tx := e.Begin()
	tx.CreateTable(Egress, "pol")
	tx.InstallFunc(compileT(t, "setprio", "fun (p, m, g) ->\n p.priority <- 6"))
	tx.AddRule(Egress, "pol", Rule{Pattern: "*", Func: "setprio"})

	if n := tx.Len(); n != 3 {
		t.Fatalf("staged ops = %d, want 3", n)
	}
	if got := e.Tables(Egress); len(got) != 0 {
		t.Fatalf("tables visible before commit: %v", got)
	}
	if got := e.InstalledFunctions(); len(got) != 0 {
		t.Fatalf("functions visible before commit: %v", got)
	}
	if e.Generation() != gen0 {
		t.Fatalf("generation moved before commit")
	}

	gen, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if gen != gen0+1 {
		t.Fatalf("commit generation = %d, want %d", gen, gen0+1)
	}
	if e.Generation() != gen {
		t.Fatalf("Generation() = %d, want %d", e.Generation(), gen)
	}
	if got := e.Tables(Egress); len(got) != 1 || got[0] != "pol" {
		t.Fatalf("tables after commit = %v", got)
	}
	p := mkPkt(100)
	p.Meta.Class = "x"
	p.Meta.MsgID = 1
	e.Process(Egress, p, 1)
	if p.Get(packet.FieldPriority) != 6 {
		t.Fatalf("priority = %d, want 6", p.Get(packet.FieldPriority))
	}

	// A finished transaction cannot commit again.
	if _, err := tx.Commit(); err == nil {
		t.Fatal("second Commit succeeded")
	}
}

// TestTxVerifyFailureRollsBack stages a valid table, function and rule
// followed by a function whose bytecode fails verification; the whole
// transaction must be rejected with nothing published.
func TestTxVerifyFailureRollsBack(t *testing.T) {
	e := testEnclave(t)
	gen0 := e.Generation()

	tx := e.Begin()
	tx.CreateTable(Egress, "pol")
	tx.InstallFunc(compileT(t, "good", "fun (p, m, g) ->\n p.priority <- 3"))
	tx.AddRule(Egress, "pol", Rule{Pattern: "*", Func: "good"})
	tx.InstallFunc(&compiler.Func{
		Name: "bad",
		Prog: &edenvm.Program{Code: []edenvm.Instr{{Op: edenvm.OpAdd}}},
	})

	_, err := tx.Commit()
	if err == nil {
		t.Fatal("commit of unverifiable function succeeded")
	}
	if !strings.Contains(err.Error(), "install bad") {
		t.Fatalf("error does not name the failed op: %v", err)
	}
	if got := e.Tables(Egress); len(got) != 0 {
		t.Fatalf("tables published by failed commit: %v", got)
	}
	if got := e.InstalledFunctions(); len(got) != 0 {
		t.Fatalf("functions published by failed commit: %v", got)
	}
	if e.Generation() != gen0 {
		t.Fatalf("generation advanced by failed commit: %d", e.Generation())
	}
}

// TestTxAbortDiscards checks Abort publishes nothing and deactivates the
// transaction.
func TestTxAbortDiscards(t *testing.T) {
	e := testEnclave(t)
	tx := e.Begin()
	tx.CreateTable(Egress, "pol")
	tx.Abort()
	if got := e.Tables(Egress); len(got) != 0 {
		t.Fatalf("abort published tables: %v", got)
	}
	if _, err := tx.Commit(); err == nil {
		t.Fatal("Commit after Abort succeeded")
	}
	tx.CreateTable(Egress, "late") // ignored after Abort
	if tx.Len() != 0 {
		t.Fatalf("staging after Abort kept ops: %d", tx.Len())
	}
}

// TestTxCommitAtomicSwap races multi-table transactional swaps against
// concurrent Process calls and asserts every packet observes one
// generation of the two-table policy, never a mix. Table "first" writes
// the priority base (1 or 2); table "second" appends a matching bit
// (priority*2 + 1 or 2; the 3-bit PCP field holds every result).
// Consistent policies yield 3 or 6; a torn read would yield 4 or 5. Every
// worker processes a packet before the first commit, so the race is run
// even where the scheduler would let the commits finish first. Run with
// -race for full effect.
func TestTxCommitAtomicSwap(t *testing.T) {
	e := testEnclave(t)
	install := func(name, src string) {
		t.Helper()
		if err := e.InstallFunc(compileT(t, name, src)); err != nil {
			t.Fatal(err)
		}
	}
	install("a1", "fun (p, m, g) ->\n p.priority <- 1")
	install("a2", "fun (p, m, g) ->\n p.priority <- 2")
	install("b1", "fun (p, m, g) ->\n p.priority <- p.priority * 2 + 1")
	install("b2", "fun (p, m, g) ->\n p.priority <- p.priority * 2 + 2")
	if _, err := e.CreateTable(Egress, "first"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable(Egress, "second"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Egress, "first", Rule{Pattern: "*", Func: "a1"}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Egress, "second", Rule{Pattern: "*", Func: "b1"}); err != nil {
		t.Fatal(err)
	}

	const commits = 200
	genBefore := e.Generation()
	stop := make(chan struct{})
	var wg, started sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		started.Add(1)
		go func(w int) {
			defer wg.Done()
			first := true
			p := mkPkt(100)
			p.Meta.Class = "x"
			p.Meta.MsgID = uint64(w + 1)
			var now int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				now++
				e.Process(Egress, p, now)
				got := p.Get(packet.FieldPriority)
				if first {
					started.Done()
					first = false
				}
				if got != 3 && got != 6 {
					t.Errorf("torn policy read: priority = %d", got)
					return
				}
			}
		}(w)
	}
	started.Wait()

	cur := 1
	for i := 0; i < commits; i++ {
		next := 3 - cur // 1 <-> 2
		tx := e.Begin()
		tx.RemoveRule(Egress, "first", "*")
		tx.RemoveRule(Egress, "second", "*")
		tx.AddRule(Egress, "first", Rule{Pattern: "*", Func: map[int]string{1: "a1", 2: "a2"}[next]})
		tx.AddRule(Egress, "second", Rule{Pattern: "*", Func: map[int]string{1: "b1", 2: "b2"}[next]})
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	close(stop)
	wg.Wait()

	if got, want := e.Generation(), genBefore+commits; got != want {
		t.Fatalf("generation = %d, want %d", got, want)
	}
}

// TestMutationFailureLeavesGenerationUnchanged: single-op control-plane
// errors must not publish a new snapshot either.
func TestMutationFailureLeavesGenerationUnchanged(t *testing.T) {
	e := testEnclave(t)
	gen0 := e.Generation()
	if err := e.AddRule(Egress, "nosuch", Rule{Pattern: "*", Func: "nosuch"}); err == nil {
		t.Fatal("AddRule to missing table succeeded")
	}
	if e.Generation() != gen0 {
		t.Fatalf("failed mutation advanced generation to %d", e.Generation())
	}
	if _, err := e.CreateTable(Egress, "t"); err != nil {
		t.Fatal(err)
	}
	if e.Generation() != gen0+1 {
		t.Fatalf("generation = %d, want %d", e.Generation(), gen0+1)
	}
}

package abtree

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/intset"
	"repro/internal/machine"
	"repro/internal/workload"
)

// scanMarkedReachable walks the (mostly) quiescent tree and reports
// reachable nodes whose LLX/SCX marked flag is set, with their live
// parents.
func scanMarkedReachable(th core.Thread, t *LLXTree) (bad, parents []core.Addr) {
	var walk func(n, parent core.Addr)
	walk = func(n, parent core.Addr) {
		if th.Load(n.Plus(fMarked)) != 0 {
			bad = append(bad, n)
			parents = append(parents, parent)
		}
		leaf, _, kc := t.ly.readMeta(th, n)
		if leaf {
			return
		}
		for i := 0; i <= kc; i++ {
			walk(core.Addr(th.Load(t.ly.ptrAddr(n, i))), n)
		}
	}
	walk(t.sentinel, core.NilAddr)
	return bad, parents
}

// describeNode prints a node's full diagnostic state.
func describeNode(th core.Thread, t *LLXTree, label string, n core.Addr) {
	leaf, flagged, kc := t.ly.readMeta(th, n)
	info := th.Load(n.Plus(fInfo))
	marked := th.Load(n.Plus(fMarked))
	fmt.Printf("  %s %#x leaf=%v flagged=%v keys=%d info=%#x marked=%d ptrs=[",
		label, uint64(n), leaf, flagged, kc, info, marked)
	if !leaf {
		for i := 0; i <= kc; i++ {
			fmt.Printf(" %#x", th.Load(t.ly.ptrAddr(n, i)))
		}
	}
	fmt.Printf(" ]\n")
	if info != 0 {
		d := core.Addr(info)
		fmt.Printf("    its desc %#x state=%d allFrozen=%d fld=%#x old=%#x new=%#x fldNow=%#x\n",
			info, th.Load(d.Plus(0)), th.Load(d.Plus(1)), th.Load(d.Plus(2)),
			th.Load(d.Plus(3)), th.Load(d.Plus(4)), th.Load(core.Addr(th.Load(d.Plus(2)))))
		numV := th.Load(d.Plus(5))
		for i := uint64(0); i < numV; i++ {
			rec := core.Addr(th.Load(d.Plus(6 + int(i)*3)))
			fmt.Printf("    dep[%d] rec=%#x exp=%#x fin=%d recInfo=%#x recMarked=%d\n",
				i, uint64(rec), th.Load(d.Plus(6+int(i)*3+1)), th.Load(d.Plus(6+int(i)*3+2)),
				th.Load(rec.Plus(fInfo)), th.Load(rec.Plus(fMarked)))
		}
	}
}

// TestLLXTreeNoWedgedFinalizedNodes is the regression test for the LLX
// stale-marked-read bug: without the second marked read in LLX, a
// finalizing SCX racing an LLX leaves a finalized node reachable through a
// live copy, permanently wedging every operation on its key range (all
// inserts/deletes spin in FINALIZED LLX retries). The test runs the
// full-contention workload and then asserts both termination and that no
// finalized node is reachable.
func TestLLXTreeNoWedgedFinalizedNodes(t *testing.T) {
	const threads = 32
	cfg := machine.DefaultConfig(threads)
	cfg.MemBytes = 256 << 20
	m := machine.New(cfg)
	s := NewLLX(m, 4, 8)
	wl := workload.Config{
		Threads: threads, KeyRange: 8192, PrefillSize: 4096,
		OpsPerThread: 2400, Mix: workload.Update3535, Seed: 44,
	}
	workload.Prefill(m, s, wl)

	type state struct {
		ops  atomic.Int64
		op   atomic.Int64 // 0 none, 1 ins, 2 del, 3 has
		key  atomic.Uint64
		done atomic.Bool
	}
	states := make([]state, threads)
	done := make(chan struct{})
	go func() {
		defer close(done)
		core.RunPhase(m, threads, func(w int, th core.Thread) {
			rng := rand.New(rand.NewSource(wl.Seed + int64(w)*7919 + 1))
			for i := 0; i < wl.OpsPerThread; i++ {
				k := intset.KeyMin + uint64(rng.Int63n(int64(wl.KeyRange)))
				op := rng.Intn(100)
				states[w].key.Store(k)
				switch {
				case op < 35:
					states[w].op.Store(1)
					s.Insert(th, k)
				case op < 70:
					states[w].op.Store(2)
					s.Delete(th, k)
				default:
					states[w].op.Store(3)
					s.Contains(th, k)
				}
				states[w].ops.Add(1)
			}
			states[w].done.Store(true)
		})
	}()
	select {
	case <-done:
		th := m.Thread(0)
		if bad, _ := scanMarkedReachable(th, s); len(bad) > 0 {
			t.Fatalf("%d finalized nodes still reachable", len(bad))
		}
		return
	case <-time.After(45 * time.Second):
	}
	opNames := []string{"-", "insert", "delete", "contains"}
	for w := 0; w < threads; w++ {
		if !states[w].done.Load() {
			fmt.Printf("worker %d STUCK at op#%d %s(%d)\n",
				w, states[w].ops.Load(), opNames[states[w].op.Load()], states[w].key.Load())
		}
	}
	// The stragglers churn; the rest of the tree is static. Scan for
	// finalized-but-reachable nodes (diagnostic only; races tolerated).
	th := m.Thread(0)
	bad, parents := scanMarkedReachable(th, s)
	fmt.Printf("marked-reachable nodes: %d\n", len(bad))
	for bi, n := range bad[:min(len(bad), 2)] {
		describeNode(th, s, "BAD", n)
		describeNode(th, s, "LIVE-PARENT", parents[bi])
	}
	for _, n := range bad[:0] {
		leaf, flagged, kc := s.ly.readMeta(th, n)
		info := th.Load(n.Plus(fInfo))
		fmt.Printf("  node %#x leaf=%v flagged=%v keys=%d info=%#x\n", uint64(n), leaf, flagged, kc, info)
		if info != 0 {
			d := core.Addr(info)
			state := th.Load(d.Plus(0))
			allFrozen := th.Load(d.Plus(1))
			fld := core.Addr(th.Load(d.Plus(2)))
			old := th.Load(d.Plus(3))
			newv := th.Load(d.Plus(4))
			numV := th.Load(d.Plus(5))
			fldNow := th.Load(fld)
			fmt.Printf("  desc %#x state=%d allFrozen=%d numV=%d fld=%#x old=%#x new=%#x fldNow=%#x swungp=%v\n",
				uint64(d), state, allFrozen, numV, uint64(fld), old, newv, fldNow, fldNow == newv)
			for i := uint64(0); i < numV; i++ {
				rec := core.Addr(th.Load(d.Plus(6 + int(i)*3)))
				exp := th.Load(d.Plus(6 + int(i)*3 + 1))
				fin := th.Load(d.Plus(6 + int(i)*3 + 2))
				recInfo := th.Load(rec.Plus(fInfo))
				recMarked := th.Load(rec.Plus(fMarked))
				fmt.Printf("    dep[%d] rec=%#x exp=%#x fin=%d recInfo=%#x recMarked=%d\n",
					i, uint64(rec), exp, fin, recInfo, recMarked)
			}
		}
	}
	t.Fatal("stall reproduced; diagnostics above")
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

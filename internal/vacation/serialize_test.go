package vacation

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/linearizability"
	"repro/internal/machine"
	"repro/internal/schedexplore"
	"repro/internal/stm"
	"repro/internal/vtags"
)

// suiteParams is a workload small enough that the serializability DFS
// stays trivial (populate is a forced real-time chain; only the client
// transactions overlap) yet contended enough to exercise retries.
func suiteParams() Params {
	return Params{QueriesPerTx: 2, PercentQuery: 100, PercentUser: 90, Relations: 4, Transactions: 4}
}

// TestSerializeSuiteBackends is the satellite acceptance test: the
// recorded Vacation workload is strictly serializable on both memory
// backends under both STM variants.
func TestSerializeSuiteBackends(t *testing.T) { serializeSuite(t, 0, 0, suiteParams()) }

// TestSerializeSuiteHashed runs the suite over hashed tables: customers
// over 8 trees and each resource kind over 4. With 32 relations every
// tree still holds several keys, so inserts and deletes rotate and fix up
// inside one tree, while transactions on different trees meet on the packed
// root lines and the shared sentinel.
func TestSerializeSuiteHashed(t *testing.T) {
	p := suiteParams()
	p.Relations, p.Transactions = 32, 16
	serializeSuite(t, 3, 2, p)
}

func serializeSuite(t *testing.T, customerBits, resourceBits uint, p Params) {
	const workers = 3
	backends := []struct {
		name string
		mk   func() core.Memory
	}{
		{"machine", func() core.Memory {
			cfg := machine.DefaultConfig(workers)
			cfg.MemBytes = 4 << 20
			cfg.MaxTags = 64
			return machine.New(cfg)
		}},
		{"vtags", func() core.Memory {
			return vtags.New(4<<20, workers, vtags.WithMaxTags(64))
		}},
	}
	variants := []struct {
		name string
		mk   func(core.Memory) *stm.TM
	}{
		{"norec", stm.NewNOrec},
		{"tagged", stm.NewTagged},
	}
	for _, b := range backends {
		for _, v := range variants {
			t.Run(b.name+"/"+v.name, func(t *testing.T) {
				mem := b.mk()
				rep := RunSerializeSuite(mem, v.mk(mem), customerBits, resourceBits, p, workers, 7)
				if err := rep.Err(); err != nil {
					t.Fatal(err)
				}
				if rep.Outcome.Ops < workers*p.Transactions {
					t.Fatalf("only %d committed txs recorded", rep.Outcome.Ops)
				}
			})
		}
	}
}

// tornSetup is the seeded-opacity-bug workload, run under the schedule
// explorer for a deterministic verdict: one writer restocks an existing
// resource record (a three-word update: numFree, numTotal, price) while a
// reader queries it. With FaultTornRead the tagged Read path skips the
// torn-read guard, so schedules interleaving the reader's two record
// loads with the writer's writeBack record a (new numFree, old price)
// observation that matches no serial state — the serializability checker
// must convict exactly those schedules.
func tornSetup(fault bool) func() schedexplore.Setup {
	return func() schedexplore.Setup {
		cfg := machine.DefaultConfig(2)
		cfg.MemBytes = 1 << 20
		cfg.MaxTags = 64
		m := machine.New(cfg)
		tm := stm.NewTagged(m)
		tm.FaultTornRead = fault
		ir := &initRecorder{Memory: m}
		mgr := NewManager(ir, tm)
		rec := history.NewRecorder(3, 8)
		init := rec.Shard(2).BeginTx()
		for _, w := range ir.writes {
			rec.Shard(2).TxWrite(init, w.Addr, w.Val)
		}
		rec.Shard(2).End(init, true, 0)
		th0 := m.Thread(0)
		RunTx(mgr, th0, rec.Shard(2), func(tx *stm.Tx) {
			mgr.AddResource(tx, th0, KindCar, 1, 100, 50)
		})
		return schedexplore.Setup{
			Machine: m,
			Workers: 2,
			Body: func(w int, th core.Thread) {
				if w == 0 {
					RunTx(mgr, th, rec.Shard(0), func(tx *stm.Tx) {
						mgr.AddResource(tx, th, KindCar, 1, 100, 90)
					})
					return
				}
				RunTx(mgr, th, rec.Shard(1), func(tx *stm.Tx) {
					mgr.QueryPrice(tx, KindCar, 1)
				})
			},
			Check: func() error {
				out := linearizability.CheckSerializable(rec)
				if err := out.Err(); err != nil {
					return fmt.Errorf("vacation history: %w", err)
				}
				return nil
			},
		}
	}
}

// TestSerializeSuiteCatchesTornRead is the acceptance-criterion fault
// injection: with the opacity bug seeded into the tagged NOrec read path
// the suite must fail and print a counterexample; with the guard intact
// the identical schedules all pass.
func TestSerializeSuiteCatchesTornRead(t *testing.T) {
	cfg := schedexplore.Config{Mode: schedexplore.RandomWalk, Seed: 3, Executions: 400}
	res := schedexplore.Explore(tornSetup(true), cfg)
	if res.Failure == nil {
		t.Fatalf("seeded torn read never convicted in %d executions", res.Executions)
	}
	msg := res.Failure.Err.Error()
	if !strings.Contains(msg, "NOT strictly serializable") {
		t.Fatalf("unexpected conviction: %v", msg)
	}
	// The printed counterexample names the torn observation.
	if !strings.Contains(msg, "observed") {
		t.Fatalf("counterexample does not name the mismatching read:\n%s", msg)
	}
	t.Logf("torn-read counterexample:\n%s\nschedule:\n%s", msg, res.Failure.String())

	res = schedexplore.Explore(tornSetup(false), cfg)
	if res.Failure != nil {
		t.Fatalf("intact guard convicted: %v", res.Failure)
	}
}

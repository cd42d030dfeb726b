package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// phaseMem is a Memory that records the RunPhase protocol: when the epoch
// was aligned, and each thread's enrolment around its body.
type phaseMem struct {
	Memory  // nil: RunPhase may use nothing but NumThreads and Thread
	threads []*phaseThread

	mu     sync.Mutex
	events []string
	active atomic.Int64
}

type phaseThread struct {
	Thread // nil: RunPhase must not issue operations itself
	m      *phaseMem
	id     int
}

func newPhaseMem(n int) *phaseMem {
	m := &phaseMem{}
	for i := 0; i < n; i++ {
		m.threads = append(m.threads, &phaseThread{m: m, id: i})
	}
	return m
}

func (m *phaseMem) log(s string) {
	m.mu.Lock()
	m.events = append(m.events, s)
	m.mu.Unlock()
}

func (m *phaseMem) NumThreads() int      { return len(m.threads) }
func (m *phaseMem) Thread(id int) Thread { return m.threads[id] }
func (m *phaseMem) BeginEpoch()          { m.log("epoch") }

func (t *phaseThread) SetActive(on bool) {
	if on {
		t.m.active.Add(1)
		t.m.log("enrol")
	} else {
		t.m.active.Add(-1)
		t.m.log("withdraw")
	}
}

func TestRunPhaseProtocol(t *testing.T) {
	const workers = 4
	m := newPhaseMem(workers + 1) // one thread more than the phase uses
	var ran [workers]atomic.Bool
	RunPhase(m, workers, func(w int, th Thread) {
		if th != m.threads[w] {
			t.Errorf("worker %d got a handle other than Thread(%d)", w, w)
		}
		m.log("body")
		ran[w].Store(true)
		if w == 1 {
			runtime.Goexit() // what t.FailNow does in a worker
		}
	})
	for w := range ran {
		if !ran[w].Load() {
			t.Errorf("worker %d did not run", w)
		}
	}
	if n := m.active.Load(); n != 0 {
		t.Errorf("%d workers still enrolled after the phase", n)
	}
	// One alignment, then every enrolment, then bodies and withdrawals.
	got := strings.Join(m.events, " ")
	wantPrefix := "epoch" + strings.Repeat(" enrol", workers) + " body"
	if !strings.HasPrefix(got, wantPrefix) || strings.Count(got, "epoch") != 1 ||
		strings.Count(got, "body") != workers || strings.Count(got, "withdraw") != workers {
		t.Errorf("protocol order: %s", got)
	}
}

// A Memory with no optional capability gets the fork, the barrier and the
// join; nothing is asserted on it.
type plainMem struct {
	Memory
	n int
}

type plainThread struct{ Thread }

func (m plainMem) NumThreads() int   { return m.n }
func (m plainMem) Thread(int) Thread { return plainThread{} }

func TestRunPhasePlainMemory(t *testing.T) {
	var ran atomic.Int64
	RunPhase(plainMem{n: 3}, 3, func(int, Thread) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Fatalf("%d of 3 workers ran", ran.Load())
	}
	RunPhase(plainMem{n: 3}, 0, func(int, Thread) { t.Error("a worker ran in an empty phase") })
}

func TestRunPhaseRejectsTooManyWorkers(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "3 workers") || !strings.Contains(msg, "2 threads") {
			t.Fatalf("panic %q does not name both counts", msg)
		}
	}()
	RunPhase(plainMem{n: 2}, 3, func(int, Thread) {})
}

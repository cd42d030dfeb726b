package harness

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/machine"
)

// Every figure is measured the same way (DESIGN.md, "Experiment harness"): a
// grid of cells, each a private simulation reduced to one point by one timed
// phase, printed by one table writer.

// grid runs cell(row, col, trial) for every cell of a rows × cols × trials
// grid on a pool of workers host goroutines (workers <= 1 runs serially) and
// returns one point per (row, col), row-major, folded from its trials in
// trial order. Cells share nothing, so any worker count gives the same
// points.
func grid[P any](workers, rows, cols, trials int, cell func(row, col, trial int) P, fold func([]P) P) []P {
	trials = max(trials, 1)
	raw := make([]P, rows*cols*trials)
	forEachCell(workers, len(raw), func(i int) {
		raw[i] = cell(i/(cols*trials), i/trials%cols, i%trials)
	})
	points := make([]P, rows*cols)
	for i := range points {
		points[i] = fold(raw[i*trials : (i+1)*trials])
	}
	return points
}

// forEachCell runs fn(i) for i in [0, n) on at most workers goroutines;
// workers <= 1 (or n <= 1) is a plain loop.
func forEachCell(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// meanOfTrials folds a cell's trials into its point: every float64 field is
// the mean of the trials' values, summed in trial order; every other field
// is trial 0's.
func meanOfTrials[P any](trials []P) P {
	out := trials[0]
	dst := reflect.ValueOf(&out).Elem()
	for i := 0; i < dst.NumField(); i++ {
		if dst.Field(i).Kind() != reflect.Float64 {
			continue
		}
		sum := 0.0
		for _, t := range trials {
			sum += reflect.ValueOf(t).Field(i).Float()
		}
		dst.Field(i).SetFloat(sum / float64(len(trials)))
	}
	return out
}

// phase is what one timed phase did to a machine: the change in its Stats
// across the phase, with Ops the operations the phase completed. On a memory
// without Stats (vtags) every counter is zero.
type phase struct {
	machine.Stats
	clockHz float64
}

// timed is every cell's timed phase: collect the host heap (settleHeap),
// snapshot, run, snapshot. run returns the operations it completed.
func timed(mem core.Memory, run func() uint64) phase {
	settleHeap()
	m, _ := mem.(*machine.Machine)
	if m == nil {
		run()
		return phase{}
	}
	before := m.Snapshot()
	ops := run()
	ph := phase{Stats: m.Snapshot(), clockHz: m.Config().ClockHz}
	d, b := reflect.ValueOf(&ph.Stats).Elem(), reflect.ValueOf(before)
	for i := 0; i < d.NumField(); i++ {
		switch f := d.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(f.Uint() - b.Field(i).Uint())
		case reflect.Float64:
			f.SetFloat(f.Float() - b.Field(i).Float())
		}
	}
	ph.Ops = ops
	return ph
}

// settleHeap collects before a cell's timed phase, so the next GC is paced
// from this cell's own live heap rather than from wherever the previous
// cell left it. With one host CPU the simulated cores' interleaving is then
// a function of the seed alone unless the phase itself allocates past the
// collector's goal: a collection inside the phase reorders the run queue,
// and with it the simulated schedule.
func settleHeap() { runtime.GC() }

// rate is completed operations per simulated second, divided by unit.
func (ph phase) rate(unit float64) float64 {
	if ph.MaxCycles == 0 {
		return 0
	}
	return float64(ph.Ops) / (float64(ph.MaxCycles) / ph.clockHz) / unit
}

// perOp is x per completed operation.
func (ph phase) perOp(x float64) float64 {
	if ph.Ops == 0 {
		return 0
	}
	return x / float64(ph.Ops)
}

func (ph phase) missPct() float64 { return pct(ph.Misses(), ph.Accesses()) }

func (ph phase) validateFailPct() float64 { return pct(ph.ValidateFails, ph.Validates) }

func (ph phase) vasFailPct() float64 {
	return pct(ph.VASFails+ph.IASFails, ph.VASAttempts+ph.IASAttempts)
}

// pct is 100·n/d, or 0 when d is 0.
func pct(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// metric is one block of a figure's table.
type metric[P any] struct {
	name string
	get  func(P) float64
	// only, when set, keeps the rows whose first point it accepts.
	only func(P) bool
}

// table is how a figure prints: one block per metric, the column axis's
// values across, one row per row label, rows and columns in the order the
// points first name them.
type table[P any] struct {
	axis    string // column header, e.g. "threads"
	width   int    // row label width
	at      func(P) (row string, col int)
	metrics []metric[P]
}

func (t table[P]) print(w io.Writer, title string, points []P) {
	var rows []string
	var cols []int
	cells := map[string]map[int]P{}
	for _, p := range points {
		r, c := t.at(p)
		if cells[r] == nil {
			cells[r] = map[int]P{}
			rows = append(rows, r)
		}
		if !slices.Contains(cols, c) {
			cols = append(cols, c)
		}
		cells[r][c] = p
	}
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, m := range t.metrics {
		fmt.Fprintf(w, "-- %s --\n%-*s", m.name, t.width, t.axis)
		for _, c := range cols {
			fmt.Fprintf(w, "%10d", c)
		}
		fmt.Fprintln(w)
		for _, r := range rows {
			if m.only != nil && !m.only(cells[r][cols[0]]) {
				continue
			}
			fmt.Fprintf(w, "%-*s", t.width, r)
			for _, c := range cols {
				fmt.Fprintf(w, "%10.3f", m.get(cells[r][c]))
			}
			fmt.Fprintln(w)
		}
	}
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed interval on a track. Nesting on a track gives the
// parent/child relation: a span's children are the spans it contains.
type span struct {
	name       string // a constant; never built per span
	start, end int64  // ns since the trace epoch
	id         uint64 // shared by the spans of one request or batch
}

// track is a single-writer span buffer (one per client connection, one for
// the ladder replay, one for the simulated cells). It never grows: past
// its capacity spans are counted and dropped, so recording stays
// allocation-free inside a measured segment.
type track struct {
	name    string
	spans   []span
	dropped uint64
}

// tracer holds the traced run's spans in memory until exit.
type tracer struct {
	epoch  time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// track registers a new track. Call before the goroutine that writes it
// starts.
func (t *tracer) track(name string, capacity int) *track {
	tr := &track{name: name, spans: make([]span, 0, capacity)}
	t.tracks = append(t.tracks, tr)
	return tr
}

// since is at as ns past the trace epoch; 0 on an untraced (nil) run.
func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.epoch))
}

// add records [start, end) on the track; a nil track records nothing, so
// untraced passes share the instrumented code path.
func (tr *track) add(name string, start, end int64, id uint64) {
	if tr == nil {
		return
	}
	if len(tr.spans) == cap(tr.spans) {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, span{name: name, start: start, end: end, id: id})
}

// ordered returns the track's spans parents-first: by start, longer first
// on a tie.
func (tr *track) ordered() []span {
	s := append([]span(nil), tr.spans...)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].start != s[j].start {
			return s[i].start < s[j].start
		}
		return s[i].end > s[j].end
	})
	return s
}

// selfTimes sums, per span name, total time and self time — the span's
// duration minus the part its direct children cover.
func (tr *track) selfTimes() map[string][2]int64 {
	out := map[string][2]int64{}
	type open struct {
		sp       span
		children int64
	}
	var stack []open
	pop := func() {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		d := top.sp.end - top.sp.start
		acc := out[top.sp.name]
		acc[0] += d
		acc[1] += d - top.children
		out[top.sp.name] = acc
		if len(stack) > 0 {
			stack[len(stack)-1].children += d
		}
	}
	for _, sp := range tr.ordered() {
		for len(stack) > 0 && sp.start >= stack[len(stack)-1].sp.end {
			pop()
		}
		stack = append(stack, open{sp: sp})
	}
	for len(stack) > 0 {
		pop()
	}
	return out
}

// printSelfTimes writes each track's per-layer total and self time.
func (t *tracer) printSelfTimes(w io.Writer) {
	for _, tr := range t.tracks {
		if len(tr.spans) == 0 {
			continue
		}
		fmt.Fprintf(w, "  track %-10s %d spans (%d dropped past capacity)\n", tr.name, len(tr.spans), tr.dropped)
		st := tr.selfTimes()
		names := make([]string, 0, len(st))
		for n := range st {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "    %-14s total %12.3f ms   self %12.3f ms\n", n,
				float64(st[n][0])/1e6, float64(st[n][1])/1e6)
		}
	}
}

// writeFile writes the spans as Chrome trace-event JSON (one pid, one tid
// per track, ph=X duration events in non-decreasing ts order per track),
// the format bench/tracecheck validates and ui.perfetto.dev loads.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	sep := func() {
		if !first {
			fmt.Fprint(w, ",\n")
		}
		first = false
	}
	for tid, tr := range t.tracks {
		sep()
		fmt.Fprintf(w, `{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, tr.name)
		for _, sp := range tr.ordered() {
			sep()
			fmt.Fprintf(w, `{"name":%q,"cat":"bench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}`,
				sp.name, tid, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, sp.id)
		}
	}
	fmt.Fprint(w, `],"displayTimeUnit":"ns"}`+"\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTailPolicyClassify(t *testing.T) {
	pol := TailPolicy{LatencyNS: 1000, Attempts: 3}
	cases := []struct {
		name string
		sp   Span
		want uint8
	}{
		{"fast-clean", Span{Start: 0, End: 500, NAttempts: 1}, 0},
		{"slow", Span{Start: 0, End: 1000, NAttempts: 1}, KeptLatency},
		{"retries", Span{Start: 0, End: 10, NAttempts: 3}, KeptRetries},
		{"overflow", Span{Start: 0, End: 10, NAttempts: 1, Overflows: 1}, KeptOverflow},
		{"error", Span{Start: 0, End: 10, Err: true}, KeptError},
		{"slow-error", Span{Start: 0, End: 2000, Err: true}, KeptLatency | KeptError},
	}
	for _, c := range cases {
		if got := pol.Classify(&c.sp); got != c.want {
			t.Errorf("%s: Classify = %#x, want %#x", c.name, got, c.want)
		}
	}
	// Disabled criteria never fire; overflow and error always keep.
	off := TailPolicy{}
	if got := off.Classify(&Span{Start: 0, End: 1 << 40, NAttempts: 100}); got != 0 {
		t.Errorf("disabled policy kept a span: %#x", got)
	}
	if got := off.Classify(&Span{Err: true}); got != KeptError {
		t.Errorf("error span not kept under disabled policy: %#x", got)
	}
}

// TestSpanRecorderLifecycle drives one request through the recorder using
// the same observer hook sequence the STM emits (abort, then commit) and
// checks the published span.
func TestSpanRecorderLifecycle(t *testing.T) {
	fr := NewFlightRecorder(1, 8)
	r := NewSpanRecorder(fr, 0, time.Now(), TailPolicy{Attempts: 2})

	r.Begin(42, 7, 100, 30, 20, 9999)
	r.TxAttemptStart()
	r.TxTagOverflow()
	r.TxAttemptEnd(false, true)
	r.TxAttemptStart()
	r.TxAttemptEnd(true, false)
	kept := r.End(5000, false)
	if !kept {
		t.Fatal("span with 2 attempts + overflow not kept under Attempts=2 policy")
	}

	spans := fr.Snapshot(nil)
	if len(spans) != 1 {
		t.Fatalf("Snapshot returned %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.ID != 42 || sp.Op != 7 || sp.Worker != 0 {
		t.Fatalf("identity fields wrong: %+v", sp)
	}
	if sp.Start != 100 || sp.Decode != 30 || sp.Queue != 20 || sp.Tick != 9999 || sp.End != 5000 {
		t.Fatalf("phase stamps wrong: %+v", sp)
	}
	if sp.NAttempts != 2 || sp.Fails != 1 || sp.Overflows != 1 {
		t.Fatalf("attempt counters wrong: %+v", sp)
	}
	if sp.Attempts[0].Cause != AttemptTagAbort || !sp.Attempts[0].Overflow {
		t.Fatalf("attempt 0 = %+v, want tag abort with overflow", sp.Attempts[0])
	}
	if sp.Attempts[1].Cause != AttemptCommit || sp.Attempts[1].Overflow {
		t.Fatalf("attempt 1 = %+v, want clean commit", sp.Attempts[1])
	}
	if sp.Kept&KeptRetries == 0 || sp.Kept&KeptOverflow == 0 {
		t.Fatalf("Kept = %#x, want retries|overflow bits", sp.Kept)
	}
	if sp.Latency() != 4900 {
		t.Fatalf("Latency = %d, want 4900", sp.Latency())
	}

	// Hooks outside a request are ignored, not crashes (the engine's
	// populate path runs transactions before any request).
	r.TxAttemptStart()
	r.TxAttemptEnd(true, false)
	if got := fr.Snapshot(nil); len(got) != 1 {
		t.Fatalf("stray hooks published a span: %d", len(got))
	}
}

// TestSpanRecorderAttemptOverflowCap: more attempts than the per-span
// record capacity keeps counting without touching memory out of range.
func TestSpanRecorderAttemptOverflowCap(t *testing.T) {
	fr := NewFlightRecorder(1, 4)
	r := NewSpanRecorder(fr, 0, time.Now(), TailPolicy{})
	r.Begin(1, 1, 0, 0, 0, 0)
	const rounds = spanMaxAttempts + 5
	for i := 0; i < rounds-1; i++ {
		r.TxAttemptStart()
		r.TxAttemptEnd(false, false)
	}
	r.TxAttemptStart()
	r.TxAttemptEnd(true, false)
	r.End(10, false)
	sp := fr.Snapshot(nil)[0]
	if sp.NAttempts != rounds {
		t.Fatalf("NAttempts = %d, want %d", sp.NAttempts, rounds)
	}
	if sp.Fails != rounds-1 {
		t.Fatalf("Fails = %d, want %d", sp.Fails, rounds-1)
	}
}

func TestFlightRingWraparoundAndTotals(t *testing.T) {
	const depth = 4
	fr := NewFlightRecorder(2, depth)
	r := NewSpanRecorder(fr, 1, time.Now(), TailPolicy{})
	const n = depth + 5
	for i := 0; i < n; i++ {
		r.Begin(uint64(1000+i), 1, uint64(i), 0, 0, 0)
		r.End(uint64(i)+1, false)
	}
	spans := fr.Snapshot(nil)
	if len(spans) != depth {
		t.Fatalf("Snapshot returned %d spans, want ring depth %d", len(spans), depth)
	}
	for i, sp := range spans {
		want := uint64(1000 + n - depth + i)
		if sp.ID != want {
			t.Errorf("span %d: ID = %d, want %d (oldest-first)", i, sp.ID, want)
		}
		if sp.Worker != 1 {
			t.Errorf("span %d: worker = %d, want 1", i, sp.Worker)
		}
	}
	recorded, kept := fr.Totals()
	if recorded != n || kept != 0 {
		t.Fatalf("Totals = %d, %d; want %d, 0", recorded, kept, n)
	}
}

func TestFlightExemplar(t *testing.T) {
	fr := NewFlightRecorder(1, 4)
	r := NewSpanRecorder(fr, 0, time.Now(), TailPolicy{LatencyNS: 100})
	if _, _, ok := fr.Exemplar(0); ok {
		t.Fatal("exemplar before any kept span")
	}
	r.Begin(7, 1, 0, 0, 0, 0)
	r.End(50, false) // fast: not kept
	if _, _, ok := fr.Exemplar(0); ok {
		t.Fatal("unkept span became the exemplar")
	}
	r.Begin(8, 1, 0, 0, 0, 0)
	r.End(500, false) // slow: kept
	id, lat, ok := fr.Exemplar(0)
	if !ok || id != 8 || lat != 500 {
		t.Fatalf("Exemplar = %d, %d, %v; want 8, 500, true", id, lat, ok)
	}
	if _, kept := fr.Totals(); kept != 1 {
		t.Fatalf("kept total = %d, want 1", kept)
	}
}

// patSpan is a span whose every packed word is a function of its ID and
// worker, so a copy mixing two spans' words cannot equal patSpan of its own
// ID — the flight ring's torn-read oracle, like patLat for windows.
func patSpan(id uint64, worker int) Span {
	sp := Span{
		ID: id, Op: uint8(id), Worker: int32(worker), Err: id%2 == 1, Kept: uint8(id % 3),
		Start: id * 3, End: id*3 + id%1000, Decode: id * 5, Queue: id * 7, Tick: id * 11,
		Fails: uint32(id * 13), Overflows: uint32(id * 17), NAttempts: uint32(id % (spanMaxAttempts + 1)),
	}
	for j := 0; j < int(sp.NAttempts); j++ {
		start := id*19 + uint64(j)
		sp.Attempts[j] = AttemptRec{
			Start: start, End: start + id%97,
			Cause: uint8((id + uint64(j)) % 3), Overflow: (id+uint64(j))%2 == 0,
		}
	}
	return sp
}

// TestFlightConcurrentRecordSnapshot is the -race stress for the flight
// rings and exemplars: four cores publish patterned spans flat out while
// four readers snapshot them, and every escaped span and exemplar must
// match the pattern word for word.
func TestFlightConcurrentRecordSnapshot(t *testing.T) {
	const cores, readers, passes = 4, 4, 200
	fr := NewFlightRecorder(cores, 8)
	var writers, wg sync.WaitGroup
	stop := make(chan struct{})
	var wrote [cores]uint64
	for w := 0; w < cores; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for id := uint64(1); ; id++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := patSpan(id, w)
				fr.Record(w, &sp)
				wrote[w] = id
			}
		}(w)
	}
	var seen [readers]int
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < passes; n++ {
				for _, sp := range fr.Snapshot(nil) {
					seen[r]++
					if sp != patSpan(sp.ID, int(sp.Worker)) {
						t.Errorf("torn span escaped the ring: %+v", sp)
						return
					}
				}
				for w := 0; w < cores; w++ {
					id, lat, ok := fr.Exemplar(w)
					if want := patSpan(id, w); ok && (want.Kept == 0 || lat != want.Latency()) {
						t.Errorf("torn exemplar escaped the ring: id %d latency %d", id, lat)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writers.Wait()
	if seen[0]+seen[1]+seen[2]+seen[3] == 0 {
		t.Fatal("readers never observed a span (vacuous stress)")
	}
	var wantRecorded, wantKept uint64
	for _, n := range wrote {
		wantRecorded += n
		wantKept += n - n/3 // patSpan keeps every ID not divisible by 3
	}
	if recorded, kept := fr.Totals(); recorded != wantRecorded || kept != wantKept {
		t.Fatalf("Totals = %d recorded, %d kept; want %d, %d", recorded, kept, wantRecorded, wantKept)
	}
}

// traceShape parses a span trace and indexes it for structural asserts.
type traceShape struct {
	events []map[string]any
}

func parseTrace(t *testing.T, raw []byte) *traceShape {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return &traceShape{events: doc.TraceEvents}
}

func (s *traceShape) count(ph, cat string) int {
	n := 0
	for _, e := range s.events {
		if e["ph"] == ph && (cat == "" || e["cat"] == cat) {
			n++
		}
	}
	return n
}

func TestWriteSpanTrace(t *testing.T) {
	opName := func(op uint8) string {
		if op == 3 {
			return "PUT"
		}
		return "?"
	}
	spans := []Span{
		{
			ID: 1001, Op: 3, Worker: 0, Start: 100, End: 900,
			Decode: 10, Queue: 20, Tick: 5555,
			NAttempts: 2, Fails: 1, Kept: KeptRetries,
			Attempts: [spanMaxAttempts]AttemptRec{
				{Start: 130, End: 300, Cause: AttemptTagAbort},
				{Start: 310, End: 700, Cause: AttemptCommit},
			},
		},
		{ID: 2002, Op: 9, Worker: 1, Start: 200, End: 400, Err: true, Kept: KeptError},
	}
	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, spans, opName, 2); err != nil {
		t.Fatalf("WriteSpanTrace: %v", err)
	}
	shape := parseTrace(t, buf.Bytes())

	// Every span is one async b/e pair in cat "req", matched by id.
	if b, e := shape.count("b", "req"), shape.count("e", "req"); b != 2 || e != 2 {
		t.Fatalf("b/e counts = %d/%d, want 2/2", b, e)
	}
	open := map[float64]string{}
	for _, ev := range shape.events {
		switch ev["ph"] {
		case "b":
			open[ev["id"].(float64)] = ev["name"].(string)
		case "e":
			name, ok := open[ev["id"].(float64)]
			if !ok {
				t.Fatalf("e without b: %v", ev)
			}
			if name != ev["name"] {
				t.Fatalf("b/e name mismatch: %q vs %q", name, ev["name"])
			}
			delete(open, ev["id"].(float64))
		}
	}
	if len(open) != 0 {
		t.Fatalf("unclosed b events: %v", open)
	}

	// Flow arrows pair s (serve pid) with f (machine pid) per id.
	if s, f := shape.count("s", "req"), shape.count("f", "req"); s != 2 || f != 2 {
		t.Fatalf("s/f counts = %d/%d, want 2/2", s, f)
	}
	for _, ev := range shape.events {
		if ev["ph"] == "s" && int(ev["pid"].(float64)) != spanPid {
			t.Errorf("flow start on pid %v, want %d", ev["pid"], spanPid)
		}
		if ev["ph"] == "f" && int(ev["pid"].(float64)) != tracePid {
			t.Errorf("flow finish on pid %v, want %d", ev["pid"], tracePid)
		}
	}

	// Both domains' tracks are named for both workers.
	names := map[string]bool{}
	for _, ev := range shape.events {
		if ev["ph"] == "M" {
			args := ev["args"].(map[string]any)
			names[fmt.Sprintf("%v/%v", ev["pid"], args["name"])] = true
		}
	}
	for _, want := range []string{"2/worker 0", "2/worker 1", "1/core 0", "1/core 1"} {
		if !names[want] {
			t.Errorf("missing thread_name metadata %q (have %v)", want, names)
		}
	}

	// Per-(pid,tid) timestamps are monotonic in file order — the
	// tracecheck invariant.
	last := map[[2]int]float64{}
	for _, ev := range shape.events {
		if ev["ph"] == "M" {
			continue
		}
		key := [2]int{int(ev["pid"].(float64)), int(ev["tid"].(float64))}
		ts := ev["ts"].(float64)
		if prev, ok := last[key]; ok && ts < prev {
			t.Fatalf("track %v time went backwards: %v after %v", key, ts, prev)
		}
		last[key] = ts
	}

	// Attempt slices carry their causes; the errored span has no attempts
	// but still gets an encode slice.
	sawTagAbort, sawCommit := false, false
	for _, ev := range shape.events {
		if ev["ph"] == "X" {
			switch ev["name"] {
			case "attempt/tagabort":
				sawTagAbort = true
			case "attempt/commit":
				sawCommit = true
			}
		}
	}
	if !sawTagAbort || !sawCommit {
		t.Fatalf("attempt phase slices missing (tagabort=%v commit=%v)", sawTagAbort, sawCommit)
	}
}

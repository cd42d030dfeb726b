package serve

import (
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The serve hot path — request decode, structure op, response encode —
// must be allocation-free in steady state, with streaming telemetry
// attached and a concurrent reader scraping it. These pins are the serving
// analogue of the backend AllocsPerRun budgets.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, f); n != 0 {
		t.Errorf("%s allocates %.1f/op, want 0", name, n)
	}
}

func TestServeHotPathAllocFree(t *testing.T) {
	eng, err := newEngine(EngineConfig{Workers: 1, MemBytes: 64 << 20, Tagged: true, Relations: 8})
	if err != nil {
		t.Fatal(err)
	}
	w := eng.workers[0]
	out := make([]byte, 0, 4096)

	// Warm up: materialize the KV key (so PUT is an update, GET a hit),
	// the set key, and a customer with one reservation (so BILL walks a
	// stable path).
	exec := func(line string) {
		req, err := ParseRequest([]byte(line))
		if err != nil {
			t.Fatalf("warmup %q: %v", line, err)
		}
		out = w.Exec(&req, out[:0])
	}
	exec("PUT 42 7\n")
	exec("SADD 42\n")
	exec("RESV 3 0 5\n")

	hot := []struct {
		name string
		line []byte
	}{
		{"GET", []byte("GET 42\n")},
		{"PUT-update", []byte("PUT 42 8\n")},
		{"DEL-miss", []byte("DEL 9999\n")},
		{"SADD-dup", []byte("SADD 42\n")},
		{"SHAS", []byte("SHAS 42\n")},
		{"SREM-miss", []byte("SREM 9999\n")},
		{"BILL", []byte("BILL 3\n")},
		{"QPRICE", []byte("QPRICE 0 5\n")},
		{"PING", []byte("PING\n")},
	}
	for _, h := range hot {
		// One warm run lets read/write-set buffers reach steady capacity.
		req, err := ParseRequest(h.line)
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		out = w.Exec(&req, out[:0])
		assertZeroAllocs(t, "decode+exec+encode "+h.name, func() {
			r, err := ParseRequest(h.line)
			if err != nil {
				t.Fatal(err)
			}
			out = w.Exec(&r, out[:0])
		})
	}

	// PUT of a key the map lacks: a node is allocated and linked in, and
	// the insert fixup runs. Each call formats a fresh key into one buffer.
	key := uint64(1 << 20)
	line := make([]byte, 0, 32)
	putFresh := func() {
		key++
		line = append(strconv.AppendUint(append(line[:0], "PUT "...), key, 10), " 1\n"...)
		r, err := ParseRequest(line)
		if err != nil {
			t.Fatal(err)
		}
		out = w.Exec(&r, out[:0])
	}
	putFresh()
	assertZeroAllocs(t, "decode+exec+encode PUT-insert", putFresh)
}

// TestServeHotPathAllocFreeWithStreaming repeats the pin with the full
// telemetry spine the server loop runs — Stream.Tick per request — while a
// concurrent reader snapshots the stream the whole time.
func TestServeHotPathAllocFreeWithStreaming(t *testing.T) {
	eng, err := newEngine(EngineConfig{Workers: 1, MemBytes: 64 << 20, Tagged: true})
	if err != nil {
		t.Fatal(err)
	}
	w := eng.workers[0]
	stream := telemetry.NewStream(1, 1000, 16)
	out := make([]byte, 0, 4096)
	line := []byte("PUT 42 7\n")

	var stop atomic.Bool
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		buf := make([]telemetry.StreamWindow, 0, stream.Depth())
		for !stop.Load() {
			buf, _ = stream.ReadCore(0, buf)
			stream.Cumulative()
		}
	}()

	clock := uint64(0)
	serveOne := func() {
		r, err := ParseRequest(line)
		if err != nil {
			t.Fatal(err)
		}
		var f0 uint64
		if w.oc != nil {
			_, f0 = w.oc.OpClock()
		}
		out = w.Exec(&r, out[:0])
		var fails uint64
		if w.oc != nil {
			_, f1 := w.oc.OpClock()
			fails = f1 - f0
		}
		clock += 130 // crosses a window boundary every ~8 requests
		stream.Tick(0, clock, 130, fails)
	}
	serveOne() // warm
	assertZeroAllocs(t, "serve+stream with reader attached", serveOne)
	stop.Store(true)
	<-readerDone
	if h, _ := stream.Cumulative(); h.Count() < 200 {
		t.Fatalf("streamed ops = %d, pin was vacuous", h.Count())
	}
}

// TestSpanRecordAllocFree pins the tracing hot path with sampling armed:
// span begin/end (kept and unkept), the tail-sample decision, and the
// flight-recorder publish must all be allocation-free.
func TestSpanRecordAllocFree(t *testing.T) {
	fr := telemetry.NewFlightRecorder(1, 64)
	rec := telemetry.NewSpanRecorder(fr, 0, time.Now(), telemetry.TailPolicy{LatencyNS: 1000, Attempts: 4})

	id := uint64(0)
	// Unkept path: fast span, one committed attempt.
	assertZeroAllocs(t, "span record (not kept)", func() {
		id++
		rec.Begin(id, 1, 10, 1, 1, 99)
		rec.TxAttemptStart()
		rec.TxAttemptEnd(true, false)
		if rec.End(20, false) {
			t.Fatal("fast span was kept")
		}
	})
	// Kept path: latency breach + retries + overflow, exemplar publish.
	assertZeroAllocs(t, "span record (tail-kept)", func() {
		id++
		rec.Begin(id, 1, 10, 1, 1, 99)
		for a := 0; a < 5; a++ {
			rec.TxAttemptStart()
			rec.TxTagOverflow()
			rec.TxAttemptEnd(a == 4, false)
		}
		if !rec.End(5000, false) {
			t.Fatal("slow span was not kept")
		}
	})
	if recorded, kept := fr.Totals(); recorded == 0 || kept == 0 {
		t.Fatalf("pin was vacuous: recorded=%d kept=%d", recorded, kept)
	}
}

// TestServeHotPathAllocFreeWithSpans is the full served hot path with the
// flight recorder armed: decode, span begin (with STM attempt observation
// wired into both TMs), exec, span end + flight publish, latency +
// stream tick — 0 allocs/op, while a snapshot reader runs. The reader
// snapshots into a buffer sized to the ring, so its own reads allocate
// nothing: testing.AllocsPerRun counts allocations process-wide, and under
// -race the reader is often scheduled inside the measured window.
func TestServeHotPathAllocFreeWithSpans(t *testing.T) {
	eng, err := newEngine(EngineConfig{Workers: 1, MemBytes: 64 << 20, Tagged: true, Relations: 8})
	if err != nil {
		t.Fatal(err)
	}
	const depth = 64
	fr := telemetry.NewFlightRecorder(1, depth)
	eng.armSpans(fr, time.Now(), telemetry.TailPolicy{LatencyNS: 1, Attempts: 4})
	w := eng.workers[0]
	stream := telemetry.NewStream(1, 1000, 16)
	out := make([]byte, 0, 4096)
	line := []byte("PUT 42 7\n")

	var stop atomic.Bool
	readerDone := make(chan struct{})
	spans := make([]telemetry.Span, 0, depth)
	go func() {
		defer close(readerDone)
		for !stop.Load() {
			spans = fr.Snapshot(spans[:0])
			fr.Exemplar(0)
			fr.Totals()
		}
	}()

	clock := uint64(0)
	id := uint64(0)
	serveOne := func() {
		r, err := ParseRequest(line)
		if err != nil {
			t.Fatal(err)
		}
		var f0, tick uint64
		if w.oc != nil {
			tick, f0 = w.oc.OpClock()
		}
		id++
		w.sr.Begin(id, r.Op, clock, 1, 1, tick)
		out = w.Exec(&r, out[:0])
		var fails uint64
		if w.oc != nil {
			_, f1 := w.oc.OpClock()
			fails = f1 - f0
		}
		clock += 130
		w.sr.End(clock, false)
		stream.Tick(0, clock, 130, fails)
	}
	serveOne() // warm
	assertZeroAllocs(t, "serve+spans+flight with snapshot reader", serveOne)
	stop.Store(true)
	<-readerDone
	if recorded, kept := fr.Totals(); recorded < 200 || kept == 0 {
		t.Fatalf("pin was vacuous: recorded=%d kept=%d (TailLatency=1 keeps everything)", recorded, kept)
	}
}

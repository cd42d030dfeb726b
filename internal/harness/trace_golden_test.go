package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"
)

// The trace golden test. TraceCell's Perfetto export is the repo's evidence
// stream: every backend event (cache hits, fills, invalidations, tag
// events, validations, commits) with its core, line and cycle, plus every
// op span. Two one-core cells are pinned byte for byte by an FNV-1a digest
// of the export and its event count: Fig. 2's HoH list and Fig. 6's
// HoH-tagged (a,b)-tree. A change to how a backend reports events, or to
// what it simulates, moves a row. If a change moves one on purpose,
// re-record it and say why in the commit.

// traceGolden was recorded at commit 4d85891, before the backends' tracer,
// telemetry and reclamation hooks moved into one observer. Do not edit a
// row to make the test pass.
var traceGolden = map[string]traceRow{
	"fig2/hoh":     {0xf1a794000b7664e4, 137061},
	"fig6/hoh-tag": {0xb1ddc3f28ad4a6ab, 32069},
}

// traceRow is one traced cell's export, reduced.
type traceRow struct {
	digest uint64
	events int
}

type traceCell struct {
	name    string
	exp     func(Scale) *SetExperiment
	variant string
}

var traceCells = []traceCell{
	{"fig2/hoh", Fig2, "hoh"},
	{"fig6/hoh-tag", Fig6, "hoh-tag"},
}

func traceRun(t *testing.T, c traceCell) traceRow {
	t.Helper()
	e := c.exp(Scale{Threads: []int{1}, OpsPerThread: 200, Trials: 1})
	var buf bytes.Buffer
	if err := e.TraceCell(c.variant, 1, &buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("%s: TraceCell output is not valid JSON: %v", c.name, err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return traceRow{h.Sum64(), len(out.TraceEvents)}
}

func TestTraceGolden(t *testing.T) {
	for _, c := range traceCells {
		t.Run(c.name, func(t *testing.T) {
			got := traceRun(t, c)
			if want, ok := traceGolden[c.name]; !ok || got != want {
				t.Errorf("traced events moved.\n got: %q: {%#x, %d},\nwant: %q: {%#x, %d},",
					c.name, got.digest, got.events, c.name, want.digest, want.events)
			}
		})
	}
}

// TestTraceGoldenRepeats guards the guard: a traced one-core cell must be
// deterministic, or a golden mismatch would mean nothing.
func TestTraceGoldenRepeats(t *testing.T) {
	for _, c := range traceCells {
		if a, b := traceRun(t, c), traceRun(t, c); a != b {
			t.Fatalf("two traces of %s differ: %s vs %s", c.name, fmt.Sprint(a), fmt.Sprint(b))
		}
	}
}

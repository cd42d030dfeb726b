package telemetry

import (
	"slices"
	"testing"
	"time"
)

// tearNewest flips the parity of the newest committed record's sequence
// word: the first call makes the record look mid-publish (as if its writer
// parked between begin and commit), the second heals it. Production code
// never leaves a sequence odd.
func (r *seqRing) tearNewest() {
	_, hi := r.span()
	if hi == 0 {
		panic("telemetry: no committed record to tear")
	}
	r.record(hi - 1)[0].Add(1)
}

// TestSeqRingTornPublish is the torn-publish oracle for every user of the
// ring: a record whose writer parked mid-publish costs the reader exactly
// the retry budget and is skipped — never returned torn, never spun on —
// while the other records still come back, and it reappears once healed.
func TestSeqRingTornPublish(t *testing.T) {
	const every = 1000
	s := NewStream(1, every, 8)
	for c := uint64(0); c < 4*every; c += every / 4 {
		s.Tick(0, c, patLat(c/every), patFails(c/every))
	}
	fr := NewFlightRecorder(1, 8)
	rec := NewSpanRecorder(fr, 0, time.Now(), TailPolicy{LatencyNS: 1})
	for id := uint64(1); id <= 3; id++ {
		rec.Begin(id, 1, id, 0, 0, 0)
		rec.End(id+10, false) // 10ns >= the 1ns threshold: kept, so it becomes the exemplar
	}

	cases := []struct {
		name string
		ring *seqRing
		read func() []uint64 // what the public reader returns, by record identity
		want []uint64
	}{
		{"window", &s.cores[0].ring, func() (starts []uint64) {
			wins, _ := s.ReadCore(0, nil)
			for _, w := range wins {
				checkWindowPattern(t, every, w)
				starts = append(starts, w.Start)
			}
			return starts
		}, []uint64{0, every, 2 * every}},
		{"span", &fr.cores[0].ring, func() (ids []uint64) {
			for _, sp := range fr.Snapshot() {
				ids = append(ids, sp.ID)
			}
			return ids
		}, []uint64{1, 2, 3}},
		{"exemplar", &fr.cores[0].ex, func() []uint64 {
			if id, lat, ok := fr.Exemplar(0); ok && lat == 10 {
				return []uint64{id}
			}
			return nil
		}, []uint64{3}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, hi := c.ring.span()
			check := func(when string, wantOK bool, wantRetries int, want []uint64) {
				t.Helper()
				if ok, retries := c.ring.read(hi-1, nil); ok != wantOK || retries != wantRetries {
					t.Fatalf("%s: read(newest) = %v after %d retries, want %v after %d",
						when, ok, retries, wantOK, wantRetries)
				}
				if got := c.read(); !slices.Equal(got, want) {
					t.Fatalf("%s: reader returned %v, want %v", when, got, want)
				}
			}
			check("baseline", true, 0, c.want)
			c.ring.tearNewest()
			check("torn", false, seqRetryLimit, c.want[:len(c.want)-1])
			c.ring.tearNewest()
			check("healed", true, 0, c.want)
		})
	}
}

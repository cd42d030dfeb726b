package main

import (
	"math/rand"

	"repro/internal/serve"
	"repro/internal/vacation"
	"repro/internal/workload"
)

// mixEntry is one op class of a traffic mix and its share in percent.
type mixEntry struct {
	op  uint8
	pct int
}

// valShift: a PUT value is key<<valShift | nonce (nonce ≥ 1), so any GET
// reply can be checked against its key without knowing the order in which
// the two connections' writes landed.
const valShift = 20

// traffic describes a served workload's request stream. The stream is a
// pure function of the seed handed to fill.
type traffic struct {
	keyRange uint64 // keys are drawn from [1, keyRange]
	resRange uint64 // reservation resource ids from [1, resRange]
	mix      []mixEntry
	newDraw  func(*rand.Rand) func() uint64
}

func newTraffic(keyRange, resRange uint64, dist workload.KeyDist, mix []mixEntry) *traffic {
	total := 0
	for _, m := range mix {
		total += m.pct
	}
	if total != 100 {
		panic("benchmark: traffic mix does not sum to 100")
	}
	cfg := workload.Config{KeyRange: keyRange, Dist: dist, ZipfTheta: 0.99}
	return &traffic{keyRange: keyRange, resRange: resRange, mix: mix, newDraw: workload.NewKeyDraw(&cfg)}
}

// fill overwrites reqs with the stream for seed.
func (t *traffic) fill(reqs []serve.Request, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	draw := t.newDraw(rng)
	for i := range reqs {
		p := rng.Intn(100)
		j := 0
		for acc := t.mix[0].pct; p >= acc; acc += t.mix[j].pct {
			j++
		}
		key := draw()
		req := serve.Request{Op: t.mix[j].op, A: key}
		switch req.Op {
		case serve.CmdPut:
			req.B = key<<valShift | uint64(rng.Int63n(1<<valShift-1)+1)
		case serve.CmdResv:
			req.B = uint64(rng.Intn(vacation.NumKinds))
			req.C = uint64(rng.Int63n(int64(t.resRange))) + 1
		case serve.CmdPing:
			req.A = 0
		}
		reqs[i] = req
	}
}

// prefillRequests is the PUT of every even key in [1, keyRange], dealt
// round-robin to conns connections.
func (t *traffic) prefillRequests(conns int) [][]serve.Request {
	out := make([][]serve.Request, conns)
	for k := uint64(2); k <= t.keyRange; k += 2 {
		c := int(k/2) % conns
		out[c] = append(out[c], serve.Request{Op: serve.CmdPut, A: k, B: k<<valShift | 1})
	}
	return out
}

// checkReply reports whether resp is a well-formed, model-consistent answer
// to req: the right reply kind for the command, and for GET a value that
// names the key asked for.
func checkReply(req *serve.Request, resp serve.Response) bool {
	switch req.Op {
	case serve.CmdGet:
		return resp.Kind == serve.RespNF ||
			(resp.Kind == serve.RespOK && resp.HasVal && resp.Val>>valShift == req.A)
	case serve.CmdPut, serve.CmdDel, serve.CmdSAdd, serve.CmdSRem, serve.CmdSHas, serve.CmdCancel:
		return resp.Kind == serve.RespTrue || resp.Kind == serve.RespFalse
	case serve.CmdResv:
		return resp.Kind == serve.RespFalse || (resp.Kind == serve.RespOK && resp.HasVal)
	case serve.CmdBill:
		return resp.Kind == serve.RespNF || (resp.Kind == serve.RespOK && resp.HasVal)
	case serve.CmdPing:
		return resp.Kind == serve.RespPong
	}
	return false
}

// checkInserted is checkReply for the prefill: every key is new, so every
// PUT must report T.
func checkInserted(_ *serve.Request, resp serve.Response) bool { return resp.Kind == serve.RespTrue }

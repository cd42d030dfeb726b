package serve

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/linearizability"
)

// Wire-level sequential specifications: the e2e test records request
// invocation / response receipt at the client (real-time order at the
// wire, not inside the structure) and checks the served history against
// these with linearizability.CheckPartitioned.

// KVWireModel is the per-key register semantics of GET/PUT/DEL as served:
// state is the key's value, 0 = absent (the protocol rejects PUT 0, so
// the encoding is unambiguous).
//
//	PUT (Arg=v): OK reports "newly inserted", state becomes v either way.
//	GET: OK reports presence; Out must equal the state when present.
//	DEL: OK reports presence; state becomes absent.
func KVWireModel() linearizability.Model {
	return linearizability.Model{
		Name: "kv-wire",
		Init: 0,
		Step: func(s uint64, e *history.Event) (uint64, bool) {
			switch e.Op {
			case CmdPut:
				return e.Arg, e.OK == (s == 0)
			case CmdGet:
				if !e.OK {
					return s, s == 0
				}
				return s, s != 0 && e.Out == s
			case CmdDel:
				return 0, e.OK == (s != 0)
			}
			return s, false
		},
		Format: func(e *history.Event) string {
			args, out := fmt.Sprint(e.Key), fmt.Sprint(e.OK)
			switch e.Op {
			case CmdPut:
				args = fmt.Sprintf("%d,%d", e.Key, e.Arg)
			case CmdGet:
				out = fmt.Sprintf("(%v,%d)", e.OK, e.Out)
			}
			return fmt.Sprintf("w%d %s(%s) = %s [inv %d, ret %d]", e.Worker, CmdName(e.Op), args, out, e.Inv, e.Ret)
		},
	}
}

// SetWireModel is the set semantics of SADD/SREM/SHAS as served: state is
// one membership bit per key (partitioned checking).
func SetWireModel() linearizability.Model {
	return linearizability.Model{
		Name: "set-wire",
		Init: 0,
		Step: func(s uint64, e *history.Event) (uint64, bool) {
			switch e.Op {
			case CmdSAdd:
				return 1, e.OK == (s == 0)
			case CmdSRem:
				return 0, e.OK == (s == 1)
			case CmdSHas:
				return s, e.OK == (s == 1)
			}
			return s, false
		},
		Format: func(e *history.Event) string {
			return fmt.Sprintf("w%d %s(%d) = %v [inv %d, ret %d]", e.Worker, CmdName(e.Op), e.Key, e.OK, e.Inv, e.Ret)
		},
	}
}

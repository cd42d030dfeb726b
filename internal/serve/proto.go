// Package serve is the network-facing layer over the tagged structures: a
// line-oriented TCP protocol exposing a transactional key-value plane (one
// txmap of 32 768 hash-chosen trees under one tagged NOrec TM), a set plane
// (VAS skiplist), and the STAMP Vacation reservation engine
// (vacation.Manager), plus an HTTP endpoint streaming mid-run telemetry
// windows (telemetry.Stream).
//
// The protocol is deliberately minimal — one ASCII line per request, one
// per response — so the hot path (decode → structure op → encode) stays
// allocation-free and the wire format is trivial to drive from tests and
// the memtag-load generator:
//
//	GET k            → OK v | NF          KV lookup
//	PUT k v          → T | F              KV upsert (T = newly inserted); v must be > 0
//	DEL k            → T | F              KV delete
//	SADD k           → T | F              set insert
//	SREM k           → T | F              set delete
//	SHAS k           → T | F              set membership
//	RESV c kind id   → OK price | F       reserve one unit for customer c
//	                                      (customer auto-created, as in STAMP)
//	BILL c           → OK bill | NF       customer's total bill
//	CANCEL c         → T | F              delete customer, releasing capacity
//	ADDCUST c        → T | F              add customer
//	ADDRES kind id n p → OK               add n units of capacity at price p
//	DELRES kind id n → T | F              remove n unreserved units
//	QPRICE kind id   → OK price | NF      price if free capacity remains
//	PING             → PONG
//
// Any \r and \n bytes at the end of a request line are dropped. Its
// tokens are separated by exactly one space (0x20); no other byte is a
// separator, and the command name is matched case-sensitively. One space
// after the last token is accepted ("GET 1 " is GET 1, "PING " is
// PING). Any other space makes an empty token: where the command still
// wants an argument it is a malformed number ("GET  1", "PUT 1  2"), after
// the last argument it is one argument too many ("GET 1  ", "PING  "), and
// before the command name it is an unknown command (" GET 1").
//
// Malformed requests get "ERR <reason>" and the connection stays open.
package serve

import "fmt"

// Wire op codes. They double as history.Event op codes when tests record
// served traffic, so they start above the structure-level codes
// (history.OpInsert..OpTx occupy 0..8).
const (
	CmdGet uint8 = 16 + iota
	CmdPut
	CmdDel
	CmdSAdd
	CmdSRem
	CmdSHas
	CmdResv
	CmdBill
	CmdCancel
	CmdAddCust
	CmdAddRes
	CmdDelRes
	CmdQPrice
	CmdPing
)

// Request is one decoded wire request. A..D are the positional numeric
// arguments (meaning depends on Op).
type Request struct {
	Op         uint8
	A, B, C, D uint64
}

// Response kinds, as returned by ParseResponse (client side).
const (
	RespOK    = 'O' // OK, possibly with a value
	RespTrue  = 'T'
	RespFalse = 'F'
	RespNF    = 'N' // not found
	RespPong  = 'P'
	RespErr   = 'E'
)

// Response is one decoded wire response.
type Response struct {
	Kind   byte
	Val    uint64 // for RespOK with a value
	HasVal bool
}

// errMalformed values are returned by ParseRequest; they are static so the
// parse path does not allocate.
var (
	errEmpty    = fmt.Errorf("serve: empty request")
	errUnknown  = fmt.Errorf("serve: unknown command")
	errArgCount = fmt.Errorf("serve: wrong argument count")
	errBadNum   = fmt.Errorf("serve: malformed number")
	errBadKind  = fmt.Errorf("serve: resource kind out of range")
	errZeroVal  = fmt.Errorf("serve: PUT value must be > 0")
)

// cmds is the protocol's vocabulary, indexed by op - CmdGet: each
// command's wire name and its positional argument count. Parse, encode and
// CmdName all read it; nothing else spells a command.
var cmds = [...]struct {
	name  string
	nArgs int
}{
	CmdGet - CmdGet:     {"GET", 1},
	CmdPut - CmdGet:     {"PUT", 2},
	CmdDel - CmdGet:     {"DEL", 1},
	CmdSAdd - CmdGet:    {"SADD", 1},
	CmdSRem - CmdGet:    {"SREM", 1},
	CmdSHas - CmdGet:    {"SHAS", 1},
	CmdResv - CmdGet:    {"RESV", 3},
	CmdBill - CmdGet:    {"BILL", 1},
	CmdCancel - CmdGet:  {"CANCEL", 1},
	CmdAddCust - CmdGet: {"ADDCUST", 1},
	CmdAddRes - CmdGet:  {"ADDRES", 4},
	CmdDelRes - CmdGet:  {"DELRES", 3},
	CmdQPrice - CmdGet:  {"QPRICE", 2},
	CmdPing - CmdGet:    {"PING", 0},
}

// CmdName renders a wire op code for traces and logs ("?" for an unknown
// code, including 0 — the span op of a request that failed to parse).
func CmdName(op uint8) string {
	if i := int(op - CmdGet); i < len(cmds) {
		return cmds[i].name
	}
	return "?"
}

// parseUint is strconv.ParseUint(string(b), 10, 64) without the string
// conversion, so request decode does not allocate.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > (1<<64-1)/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
		if v < uint64(c-'0') {
			return 0, false
		}
	}
	return v, true
}

// matchCmd maps a command token to its op code (allocation-free; commands
// are uppercase ASCII). The table is in op order, so the KV commands that
// dominate served traffic match first.
func matchCmd(tok []byte) (uint8, bool) {
	for i := range cmds {
		if string(tok) == cmds[i].name {
			return CmdGet + uint8(i), true
		}
	}
	return 0, false
}

// ParseRequest decodes one request line (as returned by bufio.ReadSlice,
// trailing '\n' included or not). Allocation-free.
func ParseRequest(line []byte) (Request, error) {
	// Trim trailing \n / \r\n.
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) == 0 {
		return Request{}, errEmpty
	}
	// Split off the command token.
	sp := -1
	for i, c := range line {
		if c == ' ' {
			sp = i
			break
		}
	}
	var tok, rest []byte
	if sp < 0 {
		tok, rest = line, nil
	} else {
		tok, rest = line[:sp], line[sp+1:]
	}
	op, ok := matchCmd(tok)
	if !ok {
		return Request{}, errUnknown
	}
	var req Request
	req.Op = op
	want := cmds[op-CmdGet].nArgs
	args := [...]*uint64{&req.A, &req.B, &req.C, &req.D}
	got := 0
	for len(rest) > 0 {
		sp = -1
		for i, c := range rest {
			if c == ' ' {
				sp = i
				break
			}
		}
		var f []byte
		if sp < 0 {
			f, rest = rest, nil
		} else {
			f, rest = rest[:sp], rest[sp+1:]
		}
		if got >= want {
			return Request{}, errArgCount
		}
		v, ok := parseUint(f)
		if !ok {
			return Request{}, errBadNum
		}
		*args[got] = v
		got++
	}
	if got != want {
		return Request{}, errArgCount
	}
	return req, nil
}

// ParseResponse decodes one response line (client side: tests and the
// load generator).
func ParseResponse(line []byte) (Response, error) {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	if len(line) == 0 {
		return Response{}, errEmpty
	}
	switch line[0] {
	case 'O':
		r := Response{Kind: RespOK}
		if len(line) > 3 && line[1] == 'K' && line[2] == ' ' {
			v, ok := parseUint(line[3:])
			if !ok {
				return Response{}, errBadNum
			}
			r.Val, r.HasVal = v, true
		}
		return r, nil
	case 'T':
		return Response{Kind: RespTrue}, nil
	case 'F':
		return Response{Kind: RespFalse}, nil
	case 'N':
		return Response{Kind: RespNF}, nil
	case 'P':
		return Response{Kind: RespPong}, nil
	case 'E':
		return Response{Kind: RespErr}, nil
	}
	return Response{}, errUnknown
}

// Response encoders: append-style so the per-connection output buffer is
// reused without allocation.

func appendUint(b []byte, v uint64) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// AppendRequest encodes req as a wire line (client side). An op code
// outside the protocol encodes as an empty line.
func AppendRequest(b []byte, req *Request) []byte {
	if i := int(req.Op - CmdGet); i < len(cmds) {
		b = append(b, cmds[i].name...)
		args := [...]uint64{req.A, req.B, req.C, req.D}
		for _, v := range args[:cmds[i].nArgs] {
			b = append(b, ' ')
			b = appendUint(b, v)
		}
	}
	return append(b, '\n')
}

func appendOK(b []byte) []byte { return append(b, "OK\n"...) }
func appendOKVal(b []byte, v uint64) []byte {
	b = append(b, "OK "...)
	b = appendUint(b, v)
	return append(b, '\n')
}
func appendBool(b []byte, ok bool) []byte {
	if ok {
		return append(b, "T\n"...)
	}
	return append(b, "F\n"...)
}
func appendNF(b []byte) []byte   { return append(b, "NF\n"...) }
func appendPong(b []byte) []byte { return append(b, "PONG\n"...) }
func appendErr(b []byte, err error) []byte {
	b = append(b, "ERR "...)
	b = append(b, err.Error()...)
	return append(b, '\n')
}

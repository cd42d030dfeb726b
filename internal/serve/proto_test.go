package serve

import (
	"bytes"
	"testing"

	"repro/internal/history"
)

func TestParseRequestRoundTrip(t *testing.T) {
	cases := []struct {
		line string
		want Request
	}{
		{"GET 5\n", Request{Op: CmdGet, A: 5}},
		{"PUT 5 77\n", Request{Op: CmdPut, A: 5, B: 77}},
		{"DEL 18446744073709551615\n", Request{Op: CmdDel, A: ^uint64(0)}},
		{"SADD 9\r\n", Request{Op: CmdSAdd, A: 9}},
		{"SREM 9\n", Request{Op: CmdSRem, A: 9}},
		{"SHAS 0\n", Request{Op: CmdSHas, A: 0}},
		{"RESV 3 1 42\n", Request{Op: CmdResv, A: 3, B: 1, C: 42}},
		{"BILL 3\n", Request{Op: CmdBill, A: 3}},
		{"CANCEL 3\n", Request{Op: CmdCancel, A: 3}},
		{"ADDCUST 12\n", Request{Op: CmdAddCust, A: 12}},
		{"ADDRES 2 7 100 60\n", Request{Op: CmdAddRes, A: 2, B: 7, C: 100, D: 60}},
		{"DELRES 2 7 100\n", Request{Op: CmdDelRes, A: 2, B: 7, C: 100}},
		{"QPRICE 0 7\n", Request{Op: CmdQPrice, A: 0, B: 7}},
		{"PING\n", Request{Op: CmdPing}},
	}
	for _, c := range cases {
		got, err := ParseRequest([]byte(c.line))
		if err != nil {
			t.Fatalf("ParseRequest(%q): %v", c.line, err)
		}
		if got != c.want {
			t.Fatalf("ParseRequest(%q) = %+v, want %+v", c.line, got, c.want)
		}
		// AppendRequest must re-encode to a line ParseRequest accepts
		// identically (the \r\n case normalizes to \n).
		enc := AppendRequest(nil, &got)
		back, err := ParseRequest(enc)
		if err != nil || back != c.want {
			t.Fatalf("re-encode of %q = %q parsed to %+v (%v)", c.line, enc, back, err)
		}
	}
}

func TestParseRequestErrors(t *testing.T) {
	for _, line := range []string{
		"\n", "NOPE 1\n", "GET\n", "GET 1 2\n", "GET x\n", "PUT 1\n",
		"ADDRES 1 2 3\n", "GET 99999999999999999999999\n", "get 1\n",
	} {
		if _, err := ParseRequest([]byte(line)); err == nil {
			t.Fatalf("ParseRequest(%q) succeeded, want error", line)
		}
	}
}

// parseGolden pins ParseRequest's outcome, the request or which error, on a
// fixed corpus: every command with 0 to 5 arguments, \r\n endings,
// lowercase names, near-miss tokens of every length, and empty, padded and
// over-long numbers. It was recorded from the per-command switches that the
// command table replaced, so a change to the table that moves any outcome
// fails here.
var parseGolden = []struct {
	line string
	want Request
	err  error
}{
	{"GET\n", Request{}, errArgCount},
	{"GET 1\n", Request{Op: CmdGet, A: 1}, nil},
	{"GET 1 2\n", Request{}, errArgCount},
	{"GET 1 2 3\n", Request{}, errArgCount},
	{"GET 1 2 3 4\n", Request{}, errArgCount},
	{"GET 1 2 3 4 5\n", Request{}, errArgCount},
	{"PUT\n", Request{}, errArgCount},
	{"PUT 1\n", Request{}, errArgCount},
	{"PUT 1 2\n", Request{Op: CmdPut, A: 1, B: 2}, nil},
	{"PUT 1 2 3\n", Request{}, errArgCount},
	{"PUT 1 2 3 4\n", Request{}, errArgCount},
	{"PUT 1 2 3 4 5\n", Request{}, errArgCount},
	{"DEL\n", Request{}, errArgCount},
	{"DEL 1\n", Request{Op: CmdDel, A: 1}, nil},
	{"DEL 1 2\n", Request{}, errArgCount},
	{"DEL 1 2 3\n", Request{}, errArgCount},
	{"DEL 1 2 3 4\n", Request{}, errArgCount},
	{"DEL 1 2 3 4 5\n", Request{}, errArgCount},
	{"SADD\n", Request{}, errArgCount},
	{"SADD 1\n", Request{Op: CmdSAdd, A: 1}, nil},
	{"SADD 1 2\n", Request{}, errArgCount},
	{"SADD 1 2 3\n", Request{}, errArgCount},
	{"SADD 1 2 3 4\n", Request{}, errArgCount},
	{"SADD 1 2 3 4 5\n", Request{}, errArgCount},
	{"SREM\n", Request{}, errArgCount},
	{"SREM 1\n", Request{Op: CmdSRem, A: 1}, nil},
	{"SREM 1 2\n", Request{}, errArgCount},
	{"SREM 1 2 3\n", Request{}, errArgCount},
	{"SREM 1 2 3 4\n", Request{}, errArgCount},
	{"SREM 1 2 3 4 5\n", Request{}, errArgCount},
	{"SHAS\n", Request{}, errArgCount},
	{"SHAS 1\n", Request{Op: CmdSHas, A: 1}, nil},
	{"SHAS 1 2\n", Request{}, errArgCount},
	{"SHAS 1 2 3\n", Request{}, errArgCount},
	{"SHAS 1 2 3 4\n", Request{}, errArgCount},
	{"SHAS 1 2 3 4 5\n", Request{}, errArgCount},
	{"RESV\n", Request{}, errArgCount},
	{"RESV 1\n", Request{}, errArgCount},
	{"RESV 1 2\n", Request{}, errArgCount},
	{"RESV 1 2 3\n", Request{Op: CmdResv, A: 1, B: 2, C: 3}, nil},
	{"RESV 1 2 3 4\n", Request{}, errArgCount},
	{"RESV 1 2 3 4 5\n", Request{}, errArgCount},
	{"BILL\n", Request{}, errArgCount},
	{"BILL 1\n", Request{Op: CmdBill, A: 1}, nil},
	{"BILL 1 2\n", Request{}, errArgCount},
	{"BILL 1 2 3\n", Request{}, errArgCount},
	{"BILL 1 2 3 4\n", Request{}, errArgCount},
	{"BILL 1 2 3 4 5\n", Request{}, errArgCount},
	{"CANCEL\n", Request{}, errArgCount},
	{"CANCEL 1\n", Request{Op: CmdCancel, A: 1}, nil},
	{"CANCEL 1 2\n", Request{}, errArgCount},
	{"CANCEL 1 2 3\n", Request{}, errArgCount},
	{"CANCEL 1 2 3 4\n", Request{}, errArgCount},
	{"CANCEL 1 2 3 4 5\n", Request{}, errArgCount},
	{"ADDCUST\n", Request{}, errArgCount},
	{"ADDCUST 1\n", Request{Op: CmdAddCust, A: 1}, nil},
	{"ADDCUST 1 2\n", Request{}, errArgCount},
	{"ADDCUST 1 2 3\n", Request{}, errArgCount},
	{"ADDCUST 1 2 3 4\n", Request{}, errArgCount},
	{"ADDCUST 1 2 3 4 5\n", Request{}, errArgCount},
	{"ADDRES\n", Request{}, errArgCount},
	{"ADDRES 1\n", Request{}, errArgCount},
	{"ADDRES 1 2\n", Request{}, errArgCount},
	{"ADDRES 1 2 3\n", Request{}, errArgCount},
	{"ADDRES 1 2 3 4\n", Request{Op: CmdAddRes, A: 1, B: 2, C: 3, D: 4}, nil},
	{"ADDRES 1 2 3 4 5\n", Request{}, errArgCount},
	{"DELRES\n", Request{}, errArgCount},
	{"DELRES 1\n", Request{}, errArgCount},
	{"DELRES 1 2\n", Request{}, errArgCount},
	{"DELRES 1 2 3\n", Request{Op: CmdDelRes, A: 1, B: 2, C: 3}, nil},
	{"DELRES 1 2 3 4\n", Request{}, errArgCount},
	{"DELRES 1 2 3 4 5\n", Request{}, errArgCount},
	{"QPRICE\n", Request{}, errArgCount},
	{"QPRICE 1\n", Request{}, errArgCount},
	{"QPRICE 1 2\n", Request{Op: CmdQPrice, A: 1, B: 2}, nil},
	{"QPRICE 1 2 3\n", Request{}, errArgCount},
	{"QPRICE 1 2 3 4\n", Request{}, errArgCount},
	{"QPRICE 1 2 3 4 5\n", Request{}, errArgCount},
	{"PING\n", Request{Op: CmdPing}, nil},
	{"PING 1\n", Request{}, errArgCount},
	{"PING 1 2\n", Request{}, errArgCount},
	{"PING 1 2 3\n", Request{}, errArgCount},
	{"PING 1 2 3 4\n", Request{}, errArgCount},
	{"PING 1 2 3 4 5\n", Request{}, errArgCount},
	{"GET 1\r\n", Request{Op: CmdGet, A: 1}, nil},
	{"PUT 1 2\r\n", Request{Op: CmdPut, A: 1, B: 2}, nil},
	{"DEL 1\r\n", Request{Op: CmdDel, A: 1}, nil},
	{"SADD 1\r\n", Request{Op: CmdSAdd, A: 1}, nil},
	{"SREM 1\r\n", Request{Op: CmdSRem, A: 1}, nil},
	{"SHAS 1\r\n", Request{Op: CmdSHas, A: 1}, nil},
	{"RESV 1 2 3\r\n", Request{Op: CmdResv, A: 1, B: 2, C: 3}, nil},
	{"BILL 1\r\n", Request{Op: CmdBill, A: 1}, nil},
	{"CANCEL 1\r\n", Request{Op: CmdCancel, A: 1}, nil},
	{"ADDCUST 1\r\n", Request{Op: CmdAddCust, A: 1}, nil},
	{"ADDRES 1 2 3 4\r\n", Request{Op: CmdAddRes, A: 1, B: 2, C: 3, D: 4}, nil},
	{"DELRES 1 2 3\r\n", Request{Op: CmdDelRes, A: 1, B: 2, C: 3}, nil},
	{"QPRICE 1 2\r\n", Request{Op: CmdQPrice, A: 1, B: 2}, nil},
	{"PING\r\n", Request{Op: CmdPing}, nil},
	{"get 1\n", Request{}, errUnknown},
	{"put 1 2\n", Request{}, errUnknown},
	{"del 1\n", Request{}, errUnknown},
	{"sadd 1\n", Request{}, errUnknown},
	{"srem 1\n", Request{}, errUnknown},
	{"shas 1\n", Request{}, errUnknown},
	{"resv 1 2 3\n", Request{}, errUnknown},
	{"bill 1\n", Request{}, errUnknown},
	{"cancel 1\n", Request{}, errUnknown},
	{"addcust 1\n", Request{}, errUnknown},
	{"addres 1 2 3 4\n", Request{}, errUnknown},
	{"delres 1 2 3\n", Request{}, errUnknown},
	{"qprice 1 2\n", Request{}, errUnknown},
	{"ping\n", Request{}, errUnknown},
	{"GEX 1\n", Request{}, errUnknown},
	{"GETX 1\n", Request{}, errUnknown},
	{"GE 1\n", Request{}, errUnknown},
	{"GEt 1\n", Request{}, errUnknown},
	{"gET 1\n", Request{}, errUnknown},
	{"PUX 1 2\n", Request{}, errUnknown},
	{"PUTX 1 2\n", Request{}, errUnknown},
	{"PU 1 2\n", Request{}, errUnknown},
	{"PUt 1 2\n", Request{}, errUnknown},
	{"pUT 1 2\n", Request{}, errUnknown},
	{"DEX 1\n", Request{}, errUnknown},
	{"DELX 1\n", Request{}, errUnknown},
	{"DE 1\n", Request{}, errUnknown},
	{"DEl 1\n", Request{}, errUnknown},
	{"dEL 1\n", Request{}, errUnknown},
	{"SADX 1\n", Request{}, errUnknown},
	{"SADDX 1\n", Request{}, errUnknown},
	{"SAD 1\n", Request{}, errUnknown},
	{"SADd 1\n", Request{}, errUnknown},
	{"sADD 1\n", Request{}, errUnknown},
	{"SREX 1\n", Request{}, errUnknown},
	{"SREMX 1\n", Request{}, errUnknown},
	{"SRE 1\n", Request{}, errUnknown},
	{"SREm 1\n", Request{}, errUnknown},
	{"sREM 1\n", Request{}, errUnknown},
	{"SHAX 1\n", Request{}, errUnknown},
	{"SHASX 1\n", Request{}, errUnknown},
	{"SHA 1\n", Request{}, errUnknown},
	{"SHAs 1\n", Request{}, errUnknown},
	{"sHAS 1\n", Request{}, errUnknown},
	{"RESX 1 2 3\n", Request{}, errUnknown},
	{"RESVX 1 2 3\n", Request{}, errUnknown},
	{"RES 1 2 3\n", Request{}, errUnknown},
	{"RESv 1 2 3\n", Request{}, errUnknown},
	{"rESV 1 2 3\n", Request{}, errUnknown},
	{"BILX 1\n", Request{}, errUnknown},
	{"BILLX 1\n", Request{}, errUnknown},
	{"BIL 1\n", Request{}, errUnknown},
	{"BILl 1\n", Request{}, errUnknown},
	{"bILL 1\n", Request{}, errUnknown},
	{"CANCEX 1\n", Request{}, errUnknown},
	{"CANCELX 1\n", Request{}, errUnknown},
	{"CANCE 1\n", Request{}, errUnknown},
	{"CANCEl 1\n", Request{}, errUnknown},
	{"cANCEL 1\n", Request{}, errUnknown},
	{"ADDCUSX 1\n", Request{}, errUnknown},
	{"ADDCUSTX 1\n", Request{}, errUnknown},
	{"ADDCUS 1\n", Request{}, errUnknown},
	{"ADDCUSt 1\n", Request{}, errUnknown},
	{"aDDCUST 1\n", Request{}, errUnknown},
	{"ADDREX 1 2 3 4\n", Request{}, errUnknown},
	{"ADDRESX 1 2 3 4\n", Request{}, errUnknown},
	{"ADDRE 1 2 3 4\n", Request{}, errUnknown},
	{"ADDREs 1 2 3 4\n", Request{}, errUnknown},
	{"aDDRES 1 2 3 4\n", Request{}, errUnknown},
	{"DELREX 1 2 3\n", Request{}, errUnknown},
	{"DELRESX 1 2 3\n", Request{}, errUnknown},
	{"DELRE 1 2 3\n", Request{}, errUnknown},
	{"DELREs 1 2 3\n", Request{}, errUnknown},
	{"dELRES 1 2 3\n", Request{}, errUnknown},
	{"QPRICX 1 2\n", Request{}, errUnknown},
	{"QPRICEX 1 2\n", Request{}, errUnknown},
	{"QPRIC 1 2\n", Request{}, errUnknown},
	{"QPRICe 1 2\n", Request{}, errUnknown},
	{"qPRICE 1 2\n", Request{}, errUnknown},
	{"PINX\n", Request{}, errUnknown},
	{"PINGX\n", Request{}, errUnknown},
	{"PIN\n", Request{}, errUnknown},
	{"PINg\n", Request{}, errUnknown},
	{"pING\n", Request{}, errUnknown},
	{"", Request{}, errEmpty},
	{"\n", Request{}, errEmpty},
	{"\r\n", Request{}, errEmpty},
	{"\r", Request{}, errEmpty},
	{" \n", Request{}, errUnknown},
	{" GET 1\n", Request{}, errUnknown},
	{"GET\t1\n", Request{}, errUnknown},
	{"GET 1\r", Request{Op: CmdGet, A: 1}, nil},
	{"GET 1\n\r\n", Request{Op: CmdGet, A: 1}, nil},
	{"GET 1\n\n", Request{Op: CmdGet, A: 1}, nil},
	{"GET \n", Request{}, errArgCount},
	{"GET  1\n", Request{}, errBadNum},
	{"GET 1 \n", Request{Op: CmdGet, A: 1}, nil},
	{"PUT 1  2\n", Request{}, errBadNum},
	{"PUT 1 \n", Request{}, errArgCount},
	{"PING \n", Request{Op: CmdPing}, nil},
	{"PING  \n", Request{}, errArgCount},
	{"PING 1\n", Request{}, errArgCount},
	{"GET 0\n", Request{Op: CmdGet}, nil},
	{"GET 18446744073709551615\n", Request{Op: CmdGet, A: 18446744073709551615}, nil},
	{"GET 18446744073709551616\n", Request{}, errBadNum},
	{"GET 18446744073709551620\n", Request{}, errBadNum},
	{"GET 99999999999999999999999\n", Request{}, errBadNum},
	{"GET 00000000000000000000000000001\n", Request{Op: CmdGet, A: 1}, nil},
	{"GET -1\n", Request{}, errBadNum},
	{"GET +1\n", Request{}, errBadNum},
	{"GET 1x\n", Request{}, errBadNum},
	{"GET x1\n", Request{}, errBadNum},
	{"PUT x 1 2\n", Request{}, errBadNum},
	{"PUT 1 2 x\n", Request{}, errArgCount},
	{"ADDRES 1 2 3 x\n", Request{}, errBadNum},
	{"GET 0x10\n", Request{}, errBadNum},
	{"PUT 1 0\n", Request{Op: CmdPut, A: 1}, nil},
	{"RESV 1 9 1\n", Request{Op: CmdResv, A: 1, B: 9, C: 1}, nil},
	{"GET 1\x00\n", Request{}, errBadNum},
}

func TestParseRequestGolden(t *testing.T) {
	for _, c := range parseGolden {
		got, err := ParseRequest([]byte(c.line))
		if got != c.want || err != c.err {
			t.Errorf("ParseRequest(%q) = %+v, %v; want %+v, %v", c.line, got, err, c.want, c.err)
		}
	}
}

// TestAppendRequestGolden pins every command's name and encoded bytes, and
// the encoding of op codes outside the table, recorded like parseGolden.
func TestAppendRequestGolden(t *testing.T) {
	for _, c := range []struct {
		op   uint8
		name string
		enc  string
	}{
		{0, "?", "x\n"},
		{15, "?", "x\n"},
		{CmdGet, "GET", "xGET 1\n"},
		{CmdPut, "PUT", "xPUT 1 2\n"},
		{CmdDel, "DEL", "xDEL 1\n"},
		{CmdSAdd, "SADD", "xSADD 1\n"},
		{CmdSRem, "SREM", "xSREM 1\n"},
		{CmdSHas, "SHAS", "xSHAS 1\n"},
		{CmdResv, "RESV", "xRESV 1 2 3\n"},
		{CmdBill, "BILL", "xBILL 1\n"},
		{CmdCancel, "CANCEL", "xCANCEL 1\n"},
		{CmdAddCust, "ADDCUST", "xADDCUST 1\n"},
		{CmdAddRes, "ADDRES", "xADDRES 1 2 3 4\n"},
		{CmdDelRes, "DELRES", "xDELRES 1 2 3\n"},
		{CmdQPrice, "QPRICE", "xQPRICE 1 2\n"},
		{CmdPing, "PING", "xPING\n"},
		{30, "?", "x\n"},
		{255, "?", "x\n"},
	} {
		if got := CmdName(c.op); got != c.name {
			t.Errorf("CmdName(%d) = %q, want %q", c.op, got, c.name)
		}
		if got := AppendRequest([]byte("x"), &Request{Op: c.op, A: 1, B: 2, C: 3, D: 4}); string(got) != c.enc {
			t.Errorf("AppendRequest(op %d) = %q, want %q", c.op, got, c.enc)
		}
	}
}

func TestParseResponse(t *testing.T) {
	cases := []struct {
		line string
		want Response
	}{
		{"OK\n", Response{Kind: RespOK}},
		{"OK 42\n", Response{Kind: RespOK, Val: 42, HasVal: true}},
		{"T\n", Response{Kind: RespTrue}},
		{"F\n", Response{Kind: RespFalse}},
		{"NF\n", Response{Kind: RespNF}},
		{"PONG\n", Response{Kind: RespPong}},
		{"ERR serve: unknown command\n", Response{Kind: RespErr}},
	}
	for _, c := range cases {
		got, err := ParseResponse([]byte(c.line))
		if err != nil || got != c.want {
			t.Fatalf("ParseResponse(%q) = %+v (%v), want %+v", c.line, got, err, c.want)
		}
	}
}

func TestAppendEncoders(t *testing.T) {
	if got := appendOKVal(nil, 0); !bytes.Equal(got, []byte("OK 0\n")) {
		t.Fatalf("appendOKVal(0) = %q", got)
	}
	if got := appendUint(nil, 18446744073709551615); string(got) != "18446744073709551615" {
		t.Fatalf("appendUint(max) = %q", got)
	}
}

// BenchmarkParseRequest decodes one line of every command in turn, so a
// change to command matching is priced across the whole vocabulary.
func BenchmarkParseRequest(b *testing.B) {
	var lines [][]byte
	for _, c := range parseGolden {
		if c.err == nil {
			lines = append(lines, []byte(c.line))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseRequest(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzRequestRoundTrip: ParseRequest never panics, refuses with a zero
// Request, and any line it accepts re-encodes through AppendRequest to a
// line that parses to the same Request. Plain `go test` replays the golden
// corpus and testdata/fuzz/FuzzRequestRoundTrip.
func FuzzRequestRoundTrip(f *testing.F) {
	for _, c := range parseGolden {
		f.Add([]byte(c.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := ParseRequest(line)
		if err != nil {
			if req != (Request{}) {
				t.Fatalf("ParseRequest(%q) refused with %v but returned %+v", line, err, req)
			}
			return
		}
		enc := AppendRequest(nil, &req)
		if back, err := ParseRequest(enc); err != nil || back != req {
			t.Fatalf("ParseRequest(%q) = %+v re-encodes to %q, which parses to %+v (%v)", line, req, enc, back, err)
		}
	})
}

func TestWireModelFormat(t *testing.T) {
	kv, set := KVWireModel().Format, SetWireModel().Format
	for _, c := range []struct {
		format func(*history.Event) string
		e      history.Event
		want   string
	}{
		{kv, history.Event{Op: CmdPut, Worker: 1, Key: 7, Arg: 9, OK: true, Inv: 3, Ret: 4}, "w1 PUT(7,9) = true [inv 3, ret 4]"},
		{kv, history.Event{Op: CmdGet, Worker: 2, Key: 7, Out: 9, OK: true, Inv: 5, Ret: 6}, "w2 GET(7) = (true,9) [inv 5, ret 6]"},
		{kv, history.Event{Op: CmdDel, Key: 7, Inv: 1, Ret: 2}, "w0 DEL(7) = false [inv 1, ret 2]"},
		{set, history.Event{Op: CmdSHas, Worker: 3, Key: 5, OK: true, Inv: 1, Ret: 2}, "w3 SHAS(5) = true [inv 1, ret 2]"},
	} {
		if got := c.format(&c.e); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

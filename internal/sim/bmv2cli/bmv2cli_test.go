package bmv2cli

import (
	"strings"
	"testing"

	"hyper4/internal/p4/hlir"
	"hyper4/internal/p4/parser"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

const testProg = `
header_type ethernet_t { fields { dstAddr : 48; srcAddr : 48; etherType : 16; } }
header_type ipv4_t { fields { stuff : 64; ttlish : 8; proto : 8; csum : 16; src : 32; dst : 32; } }
header ethernet_t ethernet;
header ipv4_t ipv4;
parser start {
    extract(ethernet);
    return select(latest.etherType) {
        0x0800 : parse_ipv4;
        default : ingress;
    }
}
parser parse_ipv4 { extract(ipv4); return ingress; }
action forward(port) { modify_field(standard_metadata.egress_spec, port); }
action _drop() { drop(); }
action nop() { no_op(); }
table dmac { reads { ethernet.dstAddr : exact; } actions { forward; _drop; } }
table acl { reads { ipv4.src : ternary; ipv4.dst : lpm; } actions { nop; _drop; } }
register r { width : 16; instance_count : 4; }
counter c { type : packets; instance_count : 4; }
meter m { type : packets; instance_count : 4; }
control ingress { apply(dmac); apply(acl); }
`

func newRT(t *testing.T) *Interp {
	t.Helper()
	prog, err := parser.Parse("rt", testProg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hlir.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("s1", h)
	if err != nil {
		t.Fatal(err)
	}
	return New(sw)
}

func TestExecTableAddAndProcess(t *testing.T) {
	r := newRT(t)
	out, err := r.Exec("table_add dmac forward 00:00:00:00:00:02 => 3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "handle ") {
		t.Errorf("output = %q", out)
	}
	if _, err := r.Exec("table_set_default acl nop"); err != nil {
		t.Fatal(err)
	}
	frame := pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MustMAC("00:00:00:00:00:02"), Src: pkt.MustMAC("00:00:00:00:00:01"), EtherType: 0x9999},
	)
	outs, _, err := r.SW.Process(frame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Port != 3 {
		t.Fatalf("outputs: %+v", outs)
	}
}

func TestExecTernaryLPMWithPriority(t *testing.T) {
	r := newRT(t)
	cmds := `
# allow 10.0.0.0/8 from hosts 192.168.1.x
table_add dmac forward 00:00:00:00:00:02 => 1
table_add acl nop 192.168.1.0&&&255.255.255.0 10.0.0.0/8 => 10
table_add acl _drop 0.0.0.0&&&0.0.0.0 0.0.0.0/0 => 99
`
	if err := r.ExecAll(cmds); err != nil {
		t.Fatal(err)
	}
	mk := func(src, dst string) []byte {
		return pkt.Serialize(
			&pkt.Ethernet{Dst: pkt.MustMAC("00:00:00:00:00:02"), Src: pkt.MustMAC("00:00:00:00:00:01"), EtherType: 0x0800},
			&pkt.IPv4{TTL: 64, Protocol: 6, Src: pkt.MustIP4(src), Dst: pkt.MustIP4(dst)},
		)
	}
	outs, _, err := r.SW.Process(mk("192.168.1.5", "10.1.2.3"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("allowed flow should pass: %+v", outs)
	}
	outs, _, err = r.SW.Process(mk("172.16.0.1", "10.1.2.3"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("catch-all drop should win: %+v", outs)
	}
}

func TestExecStatefulCommands(t *testing.T) {
	r := newRT(t)
	if _, err := r.Exec("register_write r 2 0x1234"); err != nil {
		t.Fatal(err)
	}
	out, err := r.Exec("register_read r 2")
	if err != nil {
		t.Fatal(err)
	}
	if out != "0x1234" {
		t.Errorf("register_read = %q", out)
	}
	if _, err := r.Exec("counter_read c 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("counter_reset c 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("meter_set_rates m 0 10 20"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("meter_tick m"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("mirroring_add 5 9"); err != nil {
		t.Fatal(err)
	}
}

func TestExecDeleteModify(t *testing.T) {
	r := newRT(t)
	out, err := r.Exec("table_add dmac forward 00:00:00:00:00:02 => 3")
	if err != nil {
		t.Fatal(err)
	}
	handle := strings.TrimPrefix(out, "handle ")
	if _, err := r.Exec("table_modify dmac forward " + handle + " 5"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("table_delete dmac " + handle); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Exec("table_clear dmac"); err != nil {
		t.Fatal(err)
	}
}

func TestExecErrors(t *testing.T) {
	r := newRT(t)
	bad := []string{
		"frobnicate x",
		"table_add ghost forward 1 => 2",
		"table_add dmac ghost 1 => 2",
		"table_add dmac forward => 2",
		"table_add dmac forward 00:00:00:00:00:02 =>",
		"table_add acl nop 1.2.3.4 10.0.0.0/8 => 1",           // ternary without mask
		"table_add acl nop 1.2.3.4&&&255.0.0.0 10.0.0.0 => 1", // lpm without plen
		"table_delete dmac notanumber",
		"register_write ghost 0 1",
		"register_write r x 1",
		"table_add dmac forward zzz => 1",
		"meter_set_rates m 0 x y",
	}
	for _, cmd := range bad {
		if _, err := r.Exec(cmd); err == nil {
			t.Errorf("command %q should fail", cmd)
		}
	}
}

func TestExecAllReportsLine(t *testing.T) {
	r := newRT(t)
	err := r.ExecAll("# comment\n\ntable_add dmac forward 00:00:00:00:00:02 => 1\nbogus cmd\n")
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Errorf("err = %v, want line 4", err)
	}
}

func TestParseValueForms(t *testing.T) {
	cases := []struct {
		tok   string
		width int
		want  uint64
	}{
		{"10", 16, 10},
		{"0x10", 16, 16},
		{"255.255.255.0", 0, 0xffffff00},
		{"0", 8, 0},
	}
	for _, c := range cases {
		v, err := parseValue(c.tok, c.width)
		if err != nil {
			t.Errorf("parseValue(%q): %v", c.tok, err)
			continue
		}
		if v.Uint64() != c.want {
			t.Errorf("parseValue(%q) = %#x, want %#x", c.tok, v.Uint64(), c.want)
		}
	}
	v, err := parseValue("aa:bb:cc:dd:ee:ff", 0)
	if err != nil || v.Width() != 48 || v.Uint64() != 0xaabbccddeeff {
		t.Errorf("MAC parse = %v, %v", v, err)
	}
	if _, err := parseValue("-5", 8); err == nil {
		t.Error("negative should fail")
	}
}

func TestExecRangeMatch(t *testing.T) {
	prog, err := parser.Parse("range", `
header_type h_t { fields { v : 16; } }
header h_t h;
parser start { extract(h); return ingress; }
action out(p) { modify_field(standard_metadata.egress_spec, p); }
table t { reads { h.v : range; } actions { out; } }
control ingress { apply(t); }
`)
	if err != nil {
		t.Fatal(err)
	}
	hl, err := hlir.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("s", hl)
	if err != nil {
		t.Fatal(err)
	}
	r := New(sw)
	if _, err := r.Exec("table_add t out 100->200 => 3 5"); err != nil {
		t.Fatal(err)
	}
	outs, _, err := sw.Process([]byte{0x00, 150}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || outs[0].Port != 3 {
		t.Fatalf("in-range: %+v", outs)
	}
	outs, _, _ = sw.Process([]byte{0x01, 0x00}, 0) // 256 > 200
	if len(outs) != 0 {
		t.Fatalf("out-of-range should miss: %+v", outs)
	}
	if _, err := r.Exec("table_add t out 100200 => 3 5"); err == nil {
		t.Error("range without -> should error")
	}
}

func TestExecValidMatchCLI(t *testing.T) {
	prog, err := parser.Parse("valid", `
header_type h_t { fields { v : 8; } }
header h_t a;
header h_t b;
parser start {
    extract(a);
    return select(latest.v) {
        1 : pb;
        default : ingress;
    }
}
parser pb { extract(b); return ingress; }
action out() { modify_field(standard_metadata.egress_spec, 2); }
table t { reads { valid(b) : exact; } actions { out; } }
control ingress { apply(t); }
`)
	if err != nil {
		t.Fatal(err)
	}
	hl, err := hlir.Resolve(prog)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sim.New("s", hl)
	if err != nil {
		t.Fatal(err)
	}
	r := New(sw)
	if _, err := r.Exec("table_add t out 1 =>"); err != nil {
		t.Fatal(err)
	}
	outs, _, _ := sw.Process([]byte{1, 9}, 0)
	if len(outs) != 1 {
		t.Fatal("valid=1 should match when b extracted")
	}
	outs, _, _ = sw.Process([]byte{5}, 0)
	if len(outs) != 0 {
		t.Fatal("invalid b should miss")
	}
	if _, err := r.Exec("table_add t out maybe =>"); err == nil {
		t.Error("bad valid token should error")
	}
}

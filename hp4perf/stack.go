package main

import (
	"bytes"
	"fmt"
	"net"
	goruntime "runtime"

	"hyper4/internal/core/ctl"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/persona"
	"hyper4/internal/pkt"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

// owner is the tenant every benchmark write is applied as.
const owner = "bench"

// chanBuf is the per-direction buffer of each in-process link: larger than
// any closed-loop window, so a generator never blocks on a full link.
const chanBuf = 1024

// stack is one switch wired the way cmd/hp4switch wires it: a persona
// switch with the fused fast path on, its DPMU and control plane, and the
// packet I/O runtime with GOMAXPROCS workers sharded by DPMU.PIDForPort.
type stack struct {
	sw   *sim.Switch
	d    *dpmu.DPMU
	cp   *ctl.Ctl
	rt   *pktio.Runtime
	jrnl *ctl.Journal

	// peers[port] is the generator's end of the port's in-process link.
	peers map[int]*pktio.ChanTransport
	// udpPorts maps a switch port's bound UDP port number to the switch
	// port, so receivers can tell which port a datagram left by.
	udpPorts map[int]int
	// udpAddr[port] is the switch port's bound UDP address.
	udpAddr map[int]*net.UDPAddr
}

type stackOpts struct {
	fusion bool
	// io starts the packet I/O runtime and attaches the workload's ports.
	io bool
	// journalDir, when set, journals every write there.
	journalDir string
	// genAddrs are the generator's UDP sockets; switch port i sends to
	// genAddrs[i%len].
	genAddrs []*net.UDPAddr
	// tr, when set, wraps the processor, transports and shard key.
	tr *tracer
}

// parseScript turns config lines into control-plane ops.
func parseScript(lines []string) ([]ctl.Op, error) {
	var ops []ctl.Op
	for _, l := range lines {
		op, q, err := ctl.ParseLine(l)
		if err != nil {
			return nil, fmt.Errorf("config line %q: %w", l, err)
		}
		if q != nil || op == nil {
			return nil, fmt.Errorf("config line %q is not a write", l)
		}
		ops = append(ops, *op)
	}
	return ops, nil
}

// newStack builds a switch for the workload and applies its configuration
// (plus, for UDP, the port attaches) as one control-plane batch.
func newStack(def *workloadDef, o stackOpts) (*stack, error) {
	pers, err := persona.Generate(persona.Reference)
	if err != nil {
		return nil, err
	}
	sw, err := sim.New("sw0", pers.Program)
	if err != nil {
		return nil, err
	}
	d, err := dpmu.New(sw, pers)
	if err != nil {
		return nil, err
	}
	if o.fusion {
		d.SetFusion(true)
	}
	s := &stack{sw: sw, d: d, cp: ctl.New(d), peers: map[int]*pktio.ChanTransport{},
		udpPorts: map[int]int{}, udpAddr: map[int]*net.UDPAddr{}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	ops, err := parseScript(def.script)
	if err != nil {
		return nil, err
	}
	if o.io {
		cfg := pktio.Config{Workers: goruntime.GOMAXPROCS(0)}
		cfg.ShardKey = func(port int) int {
			if pid := d.PIDForPort(port); pid >= 0 {
				return pid
			}
			return port
		}
		cfg.TransportFactory = func(port int, spec string) (pktio.Transport, error) {
			tr, err := pktio.NewTransport(spec)
			if err != nil {
				return nil, err
			}
			if u, isUDP := tr.(*pktio.UDPTransport); isUDP {
				a := u.LocalAddr().(*net.UDPAddr)
				s.udpAddr[port] = a
				s.udpPorts[a.Port] = port
			}
			return o.tr.wrapTransport(tr), nil
		}
		var proc pktio.Processor = sw
		if o.tr != nil {
			cfg.ShardKey = o.tr.wrapShardKey(cfg.ShardKey, cfg.Workers)
			proc = o.tr.wrapProcessor(sw)
		}
		s.rt = pktio.New(proc, cfg)
		s.rt.Start()
		s.cp.IO = s.rt
		for i, p := range def.ports {
			if def.udp {
				g := o.genAddrs[i%len(o.genAddrs)]
				ops = append(ops, ctl.Op{Kind: ctl.OpPortAttach, PhysPort: p,
					Spec: fmt.Sprintf("udp:127.0.0.1:0/%s", g)})
				continue
			}
			swEnd, genEnd := pktio.NewChanPair(chanBuf)
			if err := s.rt.Attach(p, o.tr.wrapTransport(swEnd)); err != nil {
				return nil, err
			}
			s.peers[p] = genEnd
		}
	}
	if o.journalDir != "" {
		j, err := ctl.OpenJournal(o.journalDir, ctl.DefaultSnapshotEvery)
		if err != nil {
			return nil, err
		}
		if _, err := s.cp.AttachJournal(j); err != nil {
			return nil, err
		}
		s.jrnl = j
	}
	if _, err := s.cp.WriteBatch(owner, ops); err != nil {
		return nil, fmt.Errorf("config batch: %w", err)
	}
	ok = true
	return s, nil
}

// close stops the runtime (draining in-flight frames), then the generator
// links, then the journal.
func (s *stack) close() {
	if s.rt != nil {
		s.rt.Close()
	}
	for _, p := range s.peers {
		_ = p.Close()
	}
	if s.jrnl != nil {
		_ = s.jrnl.Close()
	}
	s.cp.Close()
}

// tmpl is one traffic template with its expected outcome, as derived from
// the interpreted reference.
type tmpl struct {
	port int
	in   []byte
	// outPort is the expected egress port, -1 for an expected drop.
	outPort int
	out     []byte
}

// deriveOracle runs every distinct frame through a twin switch with fusion
// off — the interpreted persona is the reference semantics — and records
// its expected egress port and bytes. Each frame is run with two different
// sequence stamps to prove the stamp passes through untouched, so one
// expectation covers every stamped copy.
func deriveOracle(def *workloadDef) ([]tmpl, error) {
	twin, err := newStack(def, stackOpts{})
	if err != nil {
		return nil, fmt.Errorf("oracle twin: %w", err)
	}
	defer twin.close()
	var out []tmpl
	for fi, f := range def.flows {
		wantDrop := isBlocked(f.data)
		for _, sz := range def.sizes {
			in := resize(f.data, sz.size)
			t := tmpl{port: f.port, in: in, outPort: -1}
			var first []sim.Output
			for k, stamp := range []uint64{0x0102030405, 0xa0b0c0d0e0} {
				frame := append([]byte(nil), in...)
				putSeq(frame, stamp)
				outs, _, err := twin.sw.Process(frame, f.port)
				if err != nil {
					return nil, fmt.Errorf("oracle: flow %d: %w", fi, err)
				}
				if len(outs) > 1 {
					return nil, fmt.Errorf("oracle: flow %d emits %d frames; the benchmark checks one", fi, len(outs))
				}
				if k == 0 {
					first = outs
					continue
				}
				if len(outs) != len(first) {
					return nil, fmt.Errorf("oracle: flow %d outcome depends on its stamp", fi)
				}
				if len(outs) == 1 {
					a, b := first[0].Data, outs[0].Data
					if first[0].Port != outs[0].Port || len(a) != len(b) || len(a) < seqLen ||
						getSeq(a) != 0x0102030405 || getSeq(b) != stamp ||
						!bytes.Equal(a[:len(a)-seqLen], b[:len(b)-seqLen]) {
						return nil, fmt.Errorf("oracle: flow %d does not carry its stamp through unchanged", fi)
					}
					t.outPort = outs[0].Port
					t.out = append([]byte(nil), a...)
					putSeq(t.out, 0)
				}
			}
			if wantDrop != (t.outPort < 0) {
				return nil, fmt.Errorf("oracle: flow %d (port %d): want drop=%v, reference says port %d", fi, f.port, wantDrop, t.outPort)
			}
			for i := 0; i < sz.weight; i++ {
				out = append(out, t)
			}
		}
	}
	return out, nil
}

// isBlocked reports whether a template is TCP to one of the firewall-blocked
// ports.
func isBlocked(frame []byte) bool {
	if frame[23] != pkt.IPProtoTCP {
		return false
	}
	dst := int(frame[36])<<8 | int(frame[37])
	return dst == 5201 || dst == 2222 || dst == 8080
}

func putSeq(b []byte, seq uint64) {
	n := len(b)
	for i := 0; i < seqLen; i++ {
		b[n-1-i] = byte(seq >> (8 * i))
	}
}

func getSeq(b []byte) uint64 {
	n := len(b)
	var s uint64
	for i := seqLen - 1; i >= 0; i-- {
		s = s<<8 | uint64(b[n-1-i])
	}
	return s
}

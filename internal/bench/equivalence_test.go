package bench

import (
	"bytes"
	"sync"
	"testing"

	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// TestBatchSerialEquivalence drives every function's workload through both
// a serial Process loop and one goroutine per packet, in Native and HyPer4
// modes, and requires byte-identical per-packet outputs. This is the
// contract the concurrency rework must preserve: parallelism may reorder
// cross-packet extern updates, but each packet's forwarding behavior is
// deterministic.
func TestBatchSerialEquivalence(t *testing.T) {
	type build struct {
		name string
		mk   func(mode Mode) (*sim.Switch, error)
		pkts [][]byte
	}
	builds := []build{
		{functions.L2Switch, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.L2Switch, m) }, WorkloadPackets(functions.L2Switch)},
		{functions.Router, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.Router, m) }, WorkloadPackets(functions.Router)},
		{functions.Firewall, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.Firewall, m) }, WorkloadPackets(functions.Firewall)},
		{functions.ARPProxy, func(m Mode) (*sim.Switch, error) { return FunctionSwitch(functions.ARPProxy, m) }, WorkloadPackets(functions.ARPProxy)},
		{"composed", func(m Mode) (*sim.Switch, error) { return composedSwitch("s", m) }, WorkloadPackets(functions.Firewall)},
	}
	for _, bl := range builds {
		for _, mode := range []Mode{Native, HyPer4} {
			t.Run(bl.name+"/"+mode.String(), func(t *testing.T) {
				sw, err := bl.mk(mode)
				if err != nil {
					t.Fatal(err)
				}
				// Interleave the workload packets into a batch large enough
				// to keep several goroutines in Process at once.
				inputs := make([]sim.Input, 48)
				for i := range inputs {
					inputs[i] = sim.Input{Data: bl.pkts[i%len(bl.pkts)], Port: 1}
				}
				want := make([]sim.Result, len(inputs))
				for i, in := range inputs {
					want[i].Outputs, want[i].Trace, want[i].Err = sw.Process(in.Data, in.Port)
					if want[i].Err != nil {
						t.Fatalf("serial packet %d: %v", i, want[i].Err)
					}
				}
				got := make([]sim.Result, len(inputs))
				var wg sync.WaitGroup
				for i, in := range inputs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i].Outputs, got[i].Trace, got[i].Err = sw.Process(in.Data, in.Port)
					}()
				}
				wg.Wait()
				for i := range inputs {
					w, g := want[i], got[i]
					if g.Err != nil {
						t.Fatalf("batched packet %d: %v", i, g.Err)
					}
					if len(g.Outputs) != len(w.Outputs) {
						t.Fatalf("packet %d: %d outputs batched, %d serial", i, len(g.Outputs), len(w.Outputs))
					}
					for j := range g.Outputs {
						if g.Outputs[j].Port != w.Outputs[j].Port {
							t.Errorf("packet %d output %d: port %d vs %d", i, j, g.Outputs[j].Port, w.Outputs[j].Port)
						}
						if !bytes.Equal(g.Outputs[j].Data, w.Outputs[j].Data) {
							t.Errorf("packet %d output %d differs:\n  batched %x\n  serial  %x", i, j, g.Outputs[j].Data, w.Outputs[j].Data)
						}
					}
					if g.Trace.Applies != w.Trace.Applies || g.Trace.Passes != w.Trace.Passes {
						t.Errorf("packet %d trace: applies %d/%d passes %d/%d", i,
							g.Trace.Applies, w.Trace.Applies, g.Trace.Passes, w.Trace.Passes)
					}
				}
			})
		}
	}
}

// TestThroughputHelper sanity-checks the measurement helper the benchmark
// and hp4bench -only throughput share.
func TestThroughputHelper(t *testing.T) {
	res, err := Throughput(functions.L2Switch, Native, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets < 64 || res.SerialPPS <= 0 {
		t.Errorf("implausible result: %+v", res)
	}
}

// TestMirrorForwardsBack: the runtime rows' port-2 traffic is the mirror of
// the port-1 workload, and the fused l2_switch must forward it back out of
// port 1 byte for byte.
func TestMirrorForwardsBack(t *testing.T) {
	sw, err := FunctionSwitch(functions.L2Switch, HyPer4Fused)
	if err != nil {
		t.Fatal(err)
	}
	fwd := WorkloadPackets(functions.L2Switch)[0]
	back := mirror(fwd)
	if bytes.Equal(back, fwd) || !bytes.Equal(mirror(back), fwd) {
		t.Fatalf("mirror is not a proper involution:\n  fwd  %x\n  back %x", fwd, back)
	}
	out, _, err := sw.Process(back, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Port != 1 || !bytes.Equal(out[0].Data, back) {
		t.Fatalf("mirrored frame: outputs %+v", out)
	}
}

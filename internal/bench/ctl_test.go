package bench

import (
	"reflect"
	"strconv"
	"testing"

	"hyper4/internal/chaos"
	"hyper4/internal/core/ctl"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// TestCtlSwitchMatchesInstaller proves a switch configured through the typed
// control-plane API — the whole setup as one atomic ctl.WriteBatch of
// textual ops, exactly what hp4ctl ships over HTTP — is the same device as
// the installer-configured bench switch: the full switch dump (persona
// table contents, defaults, precedence) is bit-identical, and so is the
// forwarding. The management path does not change the data path.
func TestCtlSwitchMatchesInstaller(t *testing.T) {
	direct, err := FunctionSwitch(functions.L2Switch, HyPer4)
	if err != nil {
		t.Fatal(err)
	}
	viaCtl, d, err := newPersonaSwitch("s")
	if err != nil {
		t.Fatal(err)
	}
	ops := []ctl.Op{{Kind: ctl.OpLoadVDev, VDev: "l2", Function: functions.L2Switch}}
	for _, h := range []hostEntry{{h1MAC, 1}, {h2MAC, 2}} {
		mac := h.mac.String()
		ops = append(ops,
			ctl.Op{Kind: ctl.OpTableAdd, VDev: "l2", Table: "smac", Action: "_nop", Match: []string{mac}},
			ctl.Op{Kind: ctl.OpTableAdd, VDev: "l2", Table: "dmac", Action: "forward", Match: []string{mac}, Args: []string{strconv.Itoa(h.port)}},
		)
	}
	ops = append(ops, ctl.Op{Kind: ctl.OpAssign, VDev: "l2", PhysPort: -1, VIngress: 0})
	for _, port := range []int{1, 2} {
		ops = append(ops, ctl.Op{Kind: ctl.OpMapVPort, VDev: "l2", VPort: port, PhysPort: port})
	}
	if _, err := ctl.New(d).WriteBatch("bench", ops); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct.Dump(), viaCtl.Dump()) {
		t.Fatalf("ctl-configured switch differs from installer-configured:\ndirect %+v\nctl    %+v",
			direct.Dump(), viaCtl.Dump())
	}

	for _, in := range WorkloadPackets(functions.L2Switch) {
		want, _, err := direct.Process(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := viaCtl.Process(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("forwarding differs: direct %+v, ctl %+v", want, got)
		}
		if len(got) != 1 || got[0].Port != 2 {
			t.Fatalf("h1->h2 frame should egress port 2: %+v", got)
		}
	}
}

// TestIdleInjectorIsInvisible: a fault injector that is armed but whose
// spec injects nothing changes neither the outputs nor the allocations of
// the interpreted emulation, packet for packet. The default (no injector)
// costs a nil check; an idle one must cost no more than its hook calls.
func TestIdleInjectorIsInvisible(t *testing.T) {
	plain, err := FunctionSwitch(functions.L2Switch, HyPer4)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := FunctionSwitch(functions.L2Switch, HyPer4)
	if err != nil {
		t.Fatal(err)
	}
	in := chaos.New(chaos.Spec{})
	hooked.SetInjector(in)
	pkts := WorkloadPackets(functions.L2Switch)
	for i, p := range pkts {
		want, _, err := plain.Process(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := hooked.Process(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("packet %d: idle injector changed the outputs:\nplain  %+v\nhooked %+v", i, want, got)
		}
	}
	if st := in.Stats(); st != (chaos.Stats{}) {
		t.Fatalf("idle injector injected: %+v", st)
	}
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under the race detector")
	}
	allocs := func(sw *sim.Switch) float64 {
		return testing.AllocsPerRun(20, func() {
			for _, p := range pkts {
				if _, _, err := sw.Process(p, 1); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(pkts))
	}
	if a, b := allocs(plain), allocs(hooked); a != b {
		t.Fatalf("allocs/pkt: %.1f without an injector, %.1f with an idle one", a, b)
	}
}

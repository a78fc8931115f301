package dpmu

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hyper4/internal/core/hp4c"
	"hyper4/internal/core/persona"
	"hyper4/internal/functions"
	"hyper4/internal/p4/ast"
	"hyper4/internal/p4/hlir"
)

// roundTripRig drives seeded random control-plane ops against one DPMU: an
// l2_switch plus random programs from the random-program differential's
// generator, so every kind of DPMU state (entries, defaults, links, mcast,
// assignments, snapshots, meters, hit counters) ends up populated.
type roundTripRig struct {
	t       *testing.T
	rng     *rand.Rand
	d       *DPMU
	comps   map[string]*hp4c.Compiled // function name -> program
	fn      map[string]string         // vdev -> function name
	vdevs   []string
	handles []rtHandle
}

type rtHandle struct {
	vdev, table string
	handle      int
}

func (r *roundTripRig) compile(fn string) (*hp4c.Compiled, error) {
	if c, ok := r.comps[fn]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("no function %q", fn)
}

func (r *roundTripRig) vdev() string { return r.vdevs[r.rng.Intn(len(r.vdevs))] }

// tables lists a device's tables whose reads the generator can populate.
func (r *roundTripRig) tables(vdev string) []*ast.Table {
	prog := r.comps[r.fn[vdev]].Prog
	var out []*ast.Table
	for _, tbl := range prog.Tables {
		ok := len(tbl.Actions) > 0
		for _, rd := range tbl.Reads {
			ok = ok && rd.Field != nil && (rd.Match == ast.MatchExact || rd.Match == ast.MatchTernary || rd.Match == ast.MatchLPM)
		}
		if ok {
			out = append(out, tbl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (r *roundTripRig) spec(vdev string) (EntrySpec, bool) {
	tbls := r.tables(vdev)
	if len(tbls) == 0 {
		return EntrySpec{}, false
	}
	h := r.comps[r.fn[vdev]].Prog
	tbl := tbls[r.rng.Intn(len(tbls))]
	action := tbl.Actions[r.rng.Intn(len(tbl.Actions))]
	return EntrySpec{
		Table:    tbl.Name,
		Action:   action,
		Params:   randomMatchParams(r.rng, h, tbl),
		Args:     randomArgs(r.rng, h, action),
		Priority: 1 + r.rng.Intn(8),
	}, true
}

// op applies one random control-plane op. Ops may fail (a link to an
// unmapped port, a modify of a handle an earlier op deleted); a failed op
// must leave consistent state behind, which the round trip then covers too.
func (r *roundTripRig) op() {
	rng, d := r.rng, r.d
	v := r.vdev()
	switch rng.Intn(20) {
	case 0, 1, 2, 3, 4, 5:
		if spec, ok := r.spec(v); ok {
			if h, err := d.TableAdd("o", v, spec); err == nil {
				r.handles = append(r.handles, rtHandle{v, spec.Table, h})
			}
		}
	case 6, 7:
		if len(r.handles) > 0 {
			e := r.handles[rng.Intn(len(r.handles))]
			if spec, ok := r.spec(e.vdev); ok && spec.Table == e.table {
				_ = d.TableModify("o", e.vdev, e.handle, spec)
			}
		}
	case 8:
		if len(r.handles) > 0 {
			i := rng.Intn(len(r.handles))
			e := r.handles[i]
			_ = d.TableDelete("o", e.vdev, e.table, e.handle)
			r.handles = append(r.handles[:i], r.handles[i+1:]...)
		}
	case 9, 15, 16:
		if spec, ok := r.spec(v); ok {
			_ = d.SetDefault("o", v, spec.Table, spec.Action, spec.Args)
		}
	case 10, 17, 18:
		_ = d.LinkVPorts("o", v, 1+rng.Intn(4), r.vdev(), 1+rng.Intn(4))
	case 11:
		_ = d.MulticastGroup("o", v, 1+rng.Intn(4), []VPortRef{{r.vdev(), 1 + rng.Intn(4)}, {r.vdev(), 1 + rng.Intn(4)}})
	case 12:
		_ = d.MapVPort("o", v, 1+rng.Intn(4), 1+rng.Intn(4))
		_ = d.SetRateLimit("o", v, uint64(100+rng.Intn(100)), uint64(200+rng.Intn(100)))
	case 13:
		name := fmt.Sprintf("snap%d", rng.Intn(3))
		_ = d.SaveSnapshot(name, []Assignment{{PhysPort: 1 + rng.Intn(4), VDev: v, VIngress: 1 + rng.Intn(4)}, {PhysPort: -1, VDev: r.vdev(), VIngress: 1}})
		_ = d.ActivateSnapshot(fmt.Sprintf("snap%d", rng.Intn(3)))
	case 14:
		// Reload: the device comes back under a fresh PID with only its
		// static rows.
		if d.Unload("o", v) == nil {
			if _, err := d.Load(v, r.comps[r.fn[v]], "o", 0); err != nil {
				r.t.Fatal(err)
			}
		}
		kept := r.handles[:0]
		for _, e := range r.handles {
			if e.vdev != v {
				kept = append(kept, e)
			}
		}
		r.handles = kept
	}
}

// TestStateRoundTrip pins the single state representation: after seeded
// random op sequences (loads, table add/modify/delete, defaults, links,
// mcast, snapshots and activation, a rolled-back batch, live traffic),
// EncodeState -> RestoreState into a fresh DPMU reproduces the control dump
// byte for byte, the persona switch's dump including hit counters, and the
// encoding itself.
func TestStateRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := &roundTripRig{t: t, rng: rand.New(rand.NewSource(seed)), d: newPersonaDPMU(t),
				comps: map[string]*hp4c.Compiled{}, fn: map[string]string{}}
			loadL2(t, r.d, "l2", "o")
			r.comps[functions.L2Switch], r.fn["l2"] = compileFn(t, functions.L2Switch), functions.L2Switch
			r.vdevs = append(r.vdevs, "l2")
			for i := 0; i < 3; i++ {
				prog := randomEmulatableProgram(r.rng)
				prog.Name = fmt.Sprintf("random%d", i)
				h, err := hlir.Resolve(prog)
				if err != nil {
					t.Fatal(err)
				}
				comp, err := hp4c.Compile(h, persona.Reference)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("r%d", i)
				if _, err := r.d.Load(name, comp, "o", 0); err != nil {
					t.Fatal(err)
				}
				r.comps[prog.Name], r.fn[name] = comp, prog.Name
				r.vdevs = append(r.vdevs, name)
			}
			for i := 0; i < 120; i++ {
				r.op()
			}
			cp := r.d.Checkpoint()
			for i := 0; i < 4; i++ {
				r.op()
			}
			r.d.Rollback(cp)
			for i := 0; i < 20; i++ {
				r.op()
			}
			if err := r.d.AssignPort("o", Assignment{PhysPort: -1, VDev: "l2", VIngress: 1}); err != nil {
				t.Fatal(err)
			}
			hits := int64(0)
			for i := 0; i < 40; i++ {
				// A random link cycle can run a frame out of passes; that
				// is a fault of the configuration, not of the round trip.
				_, _, _ = r.d.SW.Process(randomFrame(r.rng), 1+r.rng.Intn(4))
			}
			swDump := r.d.SW.Dump()
			for _, td := range swDump.Tables {
				for _, e := range td.Entries {
					hits += e.Hits
				}
			}
			if hits == 0 {
				t.Fatal("traffic hit no entry; the hit counters go untested")
			}
			enc, err := r.d.EncodeState()
			if err != nil {
				t.Fatal(err)
			}
			dump, err := r.d.DumpControl()
			if err != nil {
				t.Fatal(err)
			}
			cover := map[string]int{"snapshots": len(r.d.snapshots), "link specs": len(r.d.linkSpecs)}
			for _, v := range r.d.vdevs {
				cover["entries"] += len(v.Entries)
				cover["defaults"] += len(v.DefSpecs)
				cover["mcast/link rows"] += len(v.Links)
			}
			for _, want := range []string{`"ternary"`, `"yellow_at": 1`} {
				if !strings.Contains(dump, want) {
					cover[want] = 0
				}
			}
			for what, n := range cover {
				if n == 0 {
					t.Errorf("no %s in the state; the op mix does not cover it", what)
				}
			}

			fresh := newPersonaDPMU(t)
			if err := fresh.RestoreState(enc, r.compile); err != nil {
				t.Fatal(err)
			}
			if got, err := fresh.DumpControl(); err != nil || got != dump {
				t.Fatalf("restored control dump differs (err %v):\n%s\nwant\n%s", err, got, dump)
			}
			if got := fresh.SW.Dump(); !reflect.DeepEqual(got, swDump) {
				t.Fatal("restored persona switch dump differs")
			}
			// The encodings agreeing cannot show a field the encoding drops;
			// the restored bookkeeping itself must equal the original.
			want, got := r.d.Checkpoint(), fresh.Checkpoint()
			for name, v := range want.VDevs {
				if got.VDevs[name] == nil || got.VDevs[name].Comp.Name != v.Comp.Name {
					t.Fatalf("vdev %s not restored with function %s", name, v.Comp.Name)
				}
				got.VDevs[name].Comp = v.Comp
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("restored DPMU bookkeeping differs")
			}
			if enc2, err := fresh.EncodeState(); err != nil || string(enc2) != string(enc) {
				t.Fatalf("re-encoding the restored state differs (err %v)", err)
			}
		})
	}
}

// TestRestoreRejectsMalformedState: a well-framed but malformed snapshot —
// here a value of negative width, or a device whose entry is null — is a
// decode error that leaves the DPMU untouched, never a panic.
func TestRestoreRejectsMalformedState(t *testing.T) {
	d := newPersonaDPMU(t)
	loadL2(t, d, "l2", "o")
	before, err := d.DumpControl()
	if err != nil {
		t.Fatal(err)
	}
	noCompile := func(fn string) (*hp4c.Compiled, error) { return nil, fmt.Errorf("no %q", fn) }
	for _, doc := range []string{
		`{"next_pid":1,"switch":{"tables":{"t1_ed_exact":{"next_handle":1,"default_action":"x","default_args":[{"w":-1}]}}}}`,
		`{"next_pid":1,"switch":{"tables":{"t1_ed_exact":{"next_handle":1,"default_args":[{"w":9,"b":"AAAA"}]}}}}`,
		`{"next_pid":1,"vdevs":{"l2":{"function":"l2_switch","entries":{"1":null}}},"switch":{}}`,
		`{"next_pid":1,"vdevs":{"l2":null},"switch":{}}`,
		`{"next_pid":1}`,
	} {
		if err := d.RestoreState([]byte(doc), noCompile); err == nil {
			t.Errorf("RestoreState accepted %s", doc)
		}
	}
	if after, _ := d.DumpControl(); after != before {
		t.Fatal("a rejected restore changed the DPMU")
	}
}

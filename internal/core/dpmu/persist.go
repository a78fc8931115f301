package dpmu

// Serializable control-plane state, for the crash-consistent journal
// (internal/core/ctl/journal.go). EncodeState encodes a Checkpoint as JSON —
// the state types carry their own JSON tags, and bitfield values encode as
// width + raw bytes — and RestoreState decodes one and rewinds through the
// existing Rollback machinery, so snapshot restore and batch rollback share
// one representation and one code path. Compiled programs are not
// serialized: a vdev records its function name and the restorer recompiles
// through the caller's CompileFunc (the boot environment must offer the
// same functions and persona config — hp4switch does, deterministically).

import (
	"encoding/json"
	"fmt"

	"hyper4/internal/core/hp4c"
)

// CompileFunc resolves a function name to its compiled program at restore
// time.
type CompileFunc func(function string) (*hp4c.Compiled, error)

// vdevFields is VDev without its methods, so the JSON methods below can
// encode its fields without recursing.
type vdevFields VDev

// MarshalJSON encodes the device with Comp replaced by its function name.
func (v *VDev) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		*vdevFields
		Function string `json:"function"`
	}{(*vdevFields)(v), v.Comp.Name})
}

// UnmarshalJSON decodes what MarshalJSON encodes. Comp comes back as a stub
// carrying only the function name; RestoreState recompiles it.
func (v *VDev) UnmarshalJSON(data []byte) error {
	j := struct {
		*vdevFields
		Function string `json:"function"`
	}{vdevFields: (*vdevFields)(v)}
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	v.Comp = &hp4c.Compiled{Name: j.Function}
	return nil
}

// EncodeState serializes the DPMU's full control-plane state — a
// Checkpoint — for the control-plane journal's snapshots.
func (d *DPMU) EncodeState() ([]byte, error) {
	return json.Marshal(d.Checkpoint())
}

// DumpControl renders the control-plane state as deterministic, indented
// JSON with per-entry hit counters zeroed — the traffic-independent parity
// artifact crash-recovery differentials diff: a recovered switch and a
// never-crashed twin that applied the same acked batches must render
// byte-identical dumps even though only one of them carried live traffic.
// encoding/json sorts map keys, which is what makes the dump deterministic.
func (d *DPMU) DumpControl() (string, error) {
	cp := d.Checkpoint()
	for _, td := range cp.Switch.Tables {
		for i := range td.Entries {
			td.Entries[i].Hits = 0
		}
	}
	out, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// RestoreState rewinds the DPMU to a state EncodeState captured, through the
// same Rollback machinery batch atomicity uses: DPMU bookkeeping, persona
// table state (entries with their handles, precedence and hit counters),
// mirrors and meter thresholds all return to their snapshotted values.
// Compiled programs are re-resolved by function name through compile; the
// persona program must already be loaded into the switch (the normal boot
// sequence) and the persona config must match the one the snapshot was
// taken under. A malformed document is an error, never a panic, and leaves
// the DPMU untouched.
func (d *DPMU) RestoreState(data []byte, compile CompileFunc) error {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("dpmu: decode state: %w", err)
	}
	if cp.Switch == nil {
		return fmt.Errorf("dpmu: decode state: no switch state")
	}
	// Live state never holds a nil map; a document that leaves one out must
	// not plant one.
	cp.VDevs, cp.Snapshots = nonNil(cp.VDevs), nonNil(cp.Snapshots)
	for name, v := range cp.VDevs {
		if v == nil {
			return fmt.Errorf("dpmu: decode state: vdev %q is null", name)
		}
		for h, e := range v.Entries {
			if e == nil {
				return fmt.Errorf("dpmu: decode state: vdev %q entry %d is null", name, h)
			}
		}
		comp, err := compile(v.Comp.Name)
		if err != nil {
			return fmt.Errorf("dpmu: restore %q: recompile %q: %w", name, v.Comp.Name, err)
		}
		v.Comp = comp
		v.Entries, v.Defaults, v.DefSpecs, v.VNet = nonNil(v.Entries), nonNil(v.Defaults), nonNil(v.DefSpecs), nonNil(v.VNet)
	}
	d.Rollback(&cp)
	return nil
}

// nonNil returns m, or an empty map in its place if m is nil.
func nonNil[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return map[K]V{}
	}
	return m
}

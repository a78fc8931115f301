package dpmu

// Checkpoint is the one representation of the DPMU's control-plane state.
// Checkpoint/Rollback give the control-plane layer (internal/core/ctl) its
// batch atomicity: WriteBatch checkpoints the DPMU, applies its ops, and on
// any failure rolls back so the switch and the DPMU's shadow state are
// bit-identical to the pre-batch state. The checkpoint deep-copies the DPMU's
// bookkeeping (virtual devices, their persona-row sets, ID counters,
// snapshots, assignments) and embeds a sim.SwitchDump of the persona's
// control-plane state. Compiled programs (VDev.Comp) are immutable after
// hp4c and are shared, not copied. The same value, encoded as JSON, is the
// journal's snapshot and the dump read (persist.go); the batch path never
// encodes it.

import "hyper4/internal/sim"

// Checkpoint is a restore point produced by DPMU.Checkpoint. Its fields are
// exported so it encodes to JSON as it is; treat them as read-only.
type Checkpoint struct {
	VDevs       map[string]*VDev        `json:"vdevs"`
	NextPID     int                     `json:"next_pid"`
	NextMatchID int                     `json:"next_match_id"`
	NextMcast   int                     `json:"next_mcast"`
	NextSession int                     `json:"next_session"`
	Snapshots   map[string][]Assignment `json:"snapshots"`
	Active      string                  `json:"active,omitempty"`
	AssignPEs   []pentry                `json:"assign_pes"`
	Assigns     []Assignment            `json:"assigns"`
	LinkSpecs   []linkSpec              `json:"link_specs"`
	Switch      *sim.SwitchDump         `json:"switch"`
}

func copyPentries(rows []pentry) []pentry {
	if rows == nil {
		return nil
	}
	return append([]pentry(nil), rows...)
}

func copyVDev(v *VDev) *VDev {
	c := &VDev{
		Name:       v.Name,
		PID:        v.PID,
		Owner:      v.Owner,
		Comp:       v.Comp,
		Quota:      v.Quota,
		Entries:    make(map[int]*ventry, len(v.Entries)),
		NextHandle: v.NextHandle,
		Static:     copyPentries(v.Static),
		Defaults:   make(map[string][]pentry, len(v.Defaults)),
		DefSpecs:   make(map[string]EntrySpec, len(v.DefSpecs)),
		Links:      copyPentries(v.Links),
		VNet:       make(map[int]pentry, len(v.VNet)),
	}
	for h, e := range v.Entries {
		// Spec's slices are immutable after install, so a shallow copy is a
		// faithful checkpoint.
		c.Entries[h] = &ventry{Table: e.Table, Rows: copyPentries(e.Rows), Spec: e.Spec}
	}
	for t, rows := range v.Defaults {
		c.Defaults[t] = copyPentries(rows)
	}
	for t, spec := range v.DefSpecs {
		c.DefSpecs[t] = spec
	}
	for p, row := range v.VNet {
		c.VNet[p] = row
	}
	return c
}

// Checkpoint captures the DPMU's full control-plane state (its own
// bookkeeping plus the persona switch's table state) for a later Rollback.
func (d *DPMU) Checkpoint() *Checkpoint {
	d.mu.RLock()
	defer d.mu.RUnlock()
	cp := &Checkpoint{
		VDevs:       make(map[string]*VDev, len(d.vdevs)),
		NextPID:     d.nextPID,
		NextMatchID: d.nextMatchID,
		NextMcast:   d.nextMcast,
		NextSession: d.nextSession,
		Snapshots:   make(map[string][]Assignment, len(d.snapshots)),
		Active:      d.active,
		AssignPEs:   copyPentries(d.assignPEs),
		Assigns:     append([]Assignment(nil), d.assigns...),
		LinkSpecs:   append([]linkSpec(nil), d.linkSpecs...),
		Switch:      d.SW.Dump(),
	}
	for name, v := range d.vdevs {
		cp.VDevs[name] = copyVDev(v)
	}
	for name, as := range d.snapshots {
		cp.Snapshots[name] = append([]Assignment(nil), as...)
	}
	return cp
}

// Rollback rewinds the DPMU and its persona switch to a Checkpoint. The
// checkpoint's copies become live state, so a checkpoint may only be rolled
// back once; take a fresh one for each batch.
func (d *DPMU) Rollback(cp *Checkpoint) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.rebuildFusionLocked()
	d.vdevs = cp.VDevs
	d.nextPID = cp.NextPID
	d.nextMatchID = cp.NextMatchID
	d.nextMcast = cp.NextMcast
	d.nextSession = cp.NextSession
	d.snapshots = cp.Snapshots
	d.active = cp.Active
	d.assignPEs = cp.AssignPEs
	d.assigns = cp.Assigns
	d.linkSpecs = cp.LinkSpecs
	d.SW.RestoreDump(cp.Switch)
	// The vdev set (and its PIDs) may have changed since the checkpoint;
	// reconcile the circuit-breaker records with the restored state.
	d.resyncHealth()
}

package ctl

import (
	"fmt"
	"strconv"

	"hyper4/internal/bitfield"
	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/hp4c"
	"hyper4/internal/functions"
	"hyper4/internal/sim"
	"hyper4/internal/sim/bmv2cli"
)

// applyOp executes one op against the DPMU. Callers hold c.wmu.
func (c *Ctl) applyOp(owner string, op *Op) (Result, error) {
	d := c.D
	switch op.Kind {
	case OpLoadVDev:
		prog, err := functions.Load(op.Function)
		if err != nil {
			return Result{}, fmt.Errorf("%w: %w", err, dpmu.ErrNotFound)
		}
		comp, err := hp4c.Compile(prog, d.Config())
		if err != nil {
			return Result{}, err
		}
		v, err := d.Load(op.VDev, comp, owner, op.Quota)
		if err != nil {
			return Result{}, err
		}
		return Result{PID: v.PID, Msg: fmt.Sprintf("loaded %s as program %d", v.Name, v.PID)}, nil

	case OpUnload:
		return Result{}, d.Unload(owner, op.VDev)

	case OpAssign:
		return Result{}, d.AssignPort(owner, dpmu.Assignment{PhysPort: op.PhysPort, VDev: op.VDev, VIngress: op.VIngress})

	case OpClearAssignments:
		d.ClearAssignments()
		return Result{}, nil

	case OpMapVPort:
		return Result{}, d.MapVPort(owner, op.VDev, op.VPort, op.PhysPort)

	case OpLink:
		return Result{}, d.LinkVPorts(owner, op.VDev, op.VPort, op.ToVDev, op.ToVPort)

	case OpMcast:
		targets := make([]dpmu.VPortRef, len(op.Targets))
		for i, t := range op.Targets {
			targets[i] = dpmu.VPortRef{VDev: t.VDev, VIngress: t.VIngress}
		}
		return Result{}, d.MulticastGroup(owner, op.VDev, op.VPort, targets)

	case OpRateLimit:
		return Result{}, d.SetRateLimit(owner, op.VDev, op.YellowAt, op.RedAt)

	case OpMeterTick:
		return Result{}, d.TickMeters()

	case OpSnapshotSave:
		as := make([]dpmu.Assignment, len(op.Assignments))
		for i, a := range op.Assignments {
			as[i] = dpmu.Assignment{PhysPort: a.PhysPort, VDev: a.VDev, VIngress: a.VIngress}
		}
		return Result{}, d.SaveSnapshot(op.Name, as)

	case OpSnapshotActivate:
		return Result{}, d.ActivateSnapshot(op.Name)

	case OpTableAdd:
		spec, err := c.entrySpec(op)
		if err != nil {
			return Result{}, err
		}
		h, err := d.TableAdd(owner, op.VDev, spec)
		if err != nil {
			return Result{}, err
		}
		return Result{Handle: h, Msg: fmt.Sprintf("handle %d", h)}, nil

	case OpTableModify:
		spec, err := c.entrySpec(op)
		if err != nil {
			return Result{}, err
		}
		return Result{}, d.TableModify(owner, op.VDev, op.Handle, spec)

	case OpTableDelete:
		return Result{}, d.TableDelete(owner, op.VDev, op.Table, op.Handle)

	case OpHealthReset:
		if err := d.ResetHealth(owner, op.VDev); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("health reset for %s", op.VDev)}, nil

	case OpVerify:
		return c.applyVerify(op)

	case OpPortAttach:
		if c.IO == nil {
			return Result{}, invalidf("this switch has no packet I/O runtime")
		}
		if err := c.IO.AttachSpec(op.PhysPort, op.Spec); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("port %d attached (%s)", op.PhysPort, op.Spec)}, nil

	case OpPortDetach:
		if c.IO == nil {
			return Result{}, invalidf("this switch has no packet I/O runtime")
		}
		if err := c.IO.Detach(op.PhysPort); err != nil {
			return Result{}, err
		}
		return Result{Msg: fmt.Sprintf("port %d detached", op.PhysPort)}, nil

	case OpSetDefault:
		args, err := parseValueList(op.Args)
		if err != nil {
			return Result{}, err
		}
		return Result{}, d.SetDefault(owner, op.VDev, op.Table, op.Action, args)
	}
	return Result{}, invalidf("unknown op kind %q", op.Kind)
}

// entrySpec materializes a table_add/table_modify op as a dpmu.EntrySpec,
// parsing the textual match/argument tokens against the device's compiled
// program.
func (c *Ctl) entrySpec(op *Op) (dpmu.EntrySpec, error) {
	spec := dpmu.EntrySpec{Table: op.Table, Action: op.Action}
	v, err := c.D.VDev(op.VDev)
	if err != nil {
		return spec, err
	}
	tbl, ok := v.Comp.Prog.Tables[op.Table]
	if !ok {
		return spec, fmt.Errorf("program %s has no table %q: %w", v.Comp.Name, op.Table, dpmu.ErrNotFound)
	}
	act, ok := v.Comp.Actions[op.Action]
	if !ok {
		return spec, fmt.Errorf("program %s has no action %q: %w", v.Comp.Name, op.Action, dpmu.ErrNotFound)
	}
	if len(op.Match) != len(tbl.Reads) {
		return spec, invalidf("table %s wants %d match fields, got %d", op.Table, len(tbl.Reads), len(op.Match))
	}
	spec.Params = make([]sim.MatchParam, len(tbl.Reads))
	needsPriority := false
	for i, r := range tbl.Reads {
		rs := sim.ReadSpec{Kind: r.Match}
		if r.Field != nil {
			w, err := v.Comp.Prog.FieldWidth(*r.Field)
			if err != nil {
				return spec, err
			}
			rs.Width = w
		} else {
			rs.Width = 1
		}
		p, err := bmv2cli.ParseMatchToken(op.Match[i], rs)
		if err != nil {
			return spec, fmt.Errorf("match %d: %w: %w", i, err, dpmu.ErrInvalid)
		}
		spec.Params[i] = p
		if r.Match == "ternary" || r.Match == "lpm" || r.Match == "range" {
			needsPriority = true
		}
	}
	argToks := op.Args
	if needsPriority && len(argToks) == len(act.Params)+1 {
		p, err := strconv.Atoi(argToks[len(argToks)-1])
		if err != nil {
			return spec, invalidf("bad priority %q", argToks[len(argToks)-1])
		}
		spec.Priority = p
		argToks = argToks[:len(argToks)-1]
	}
	if len(argToks) != len(act.Params) {
		return spec, invalidf("action %s wants %d args, got %d", op.Action, len(act.Params), len(argToks))
	}
	if spec.Args, err = parseValueList(argToks); err != nil {
		return spec, err
	}
	return spec, nil
}

func parseValueList(toks []string) ([]bitfield.Value, error) {
	out := make([]bitfield.Value, len(toks))
	for i, tok := range toks {
		v, err := bmv2cli.ParseValueToken(tok, 0)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %w: %w", i, err, dpmu.ErrInvalid)
		}
		out[i] = v
	}
	return out, nil
}

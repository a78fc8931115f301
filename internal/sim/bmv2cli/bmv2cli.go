// Package bmv2cli parses and executes bmv2-CLI-style text commands against a
// sim.Switch. This is the command format the HyPer4 compiler emits (§5.2 of
// the paper describes the original "commands files"), so a compiled program
// is a script this package can replay.
//
// Supported commands:
//
//	table_add <table> <action> <match>... => <arg>... [priority]
//	table_set_default <table> <action> [<arg>...]
//	table_delete <table> <handle>
//	table_modify <table> <action> <handle> [<arg>...]
//	table_clear <table>
//	mirroring_add <session> <port>
//	register_write <register> <index> <value>
//	register_read <register> <index>
//	counter_read <counter> <index>
//	counter_reset <counter> <index>
//	meter_set_rates <meter> <index> <yellow> <red>
//	meter_tick <meter>
//
// Match value syntax per kind: exact "v", ternary "v&&&mask", lpm "v/plen",
// range "lo->hi", valid "0"/"1". Values may be decimal, 0x-hex, MAC
// (aa:bb:cc:dd:ee:ff) or IPv4 (a.b.c.d) notation. Lines beginning with '#'
// and blank lines are ignored.
package bmv2cli

import (
	"bufio"
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"hyper4/internal/bitfield"
	"hyper4/internal/p4/ast"
	"hyper4/internal/pkt"
	"hyper4/internal/sim"
)

// Interp executes commands against one switch.
type Interp struct {
	SW *sim.Switch
}

// New wraps a switch in a command interpreter.
func New(sw *sim.Switch) *Interp { return &Interp{SW: sw} }

// ExecAll executes every command line in a script, stopping at the first
// error and reporting the line number.
func (r *Interp) ExecAll(script string) error {
	sc := bufio.NewScanner(strings.NewReader(script))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		if _, err := r.Exec(line); err != nil {
			return fmt.Errorf("line %d (%q): %w", lineNo, line, err)
		}
	}
	return sc.Err()
}

// Exec executes one command line and returns its textual result (empty for
// commands with no output).
func (r *Interp) Exec(line string) (string, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "table_add":
		return r.tableAdd(args)
	case "table_set_default":
		return r.tableSetDefault(args)
	case "table_delete":
		if len(args) != 2 {
			return "", fmt.Errorf("table_delete wants <table> <handle>")
		}
		h, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad handle %q", args[1])
		}
		return "", r.SW.TableDelete(args[0], h)
	case "table_modify":
		return r.tableModify(args)
	case "table_clear":
		if len(args) != 1 {
			return "", fmt.Errorf("table_clear wants <table>")
		}
		return "", r.SW.TableClear(args[0])
	case "mirroring_add":
		if len(args) != 2 {
			return "", fmt.Errorf("mirroring_add wants <session> <port>")
		}
		sess, err1 := strconv.Atoi(args[0])
		port, err2 := strconv.Atoi(args[1])
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("bad mirroring args %v", args)
		}
		r.SW.SetMirror(sess, port)
		return "", nil
	case "register_write":
		if len(args) != 3 {
			return "", fmt.Errorf("register_write wants <register> <index> <value>")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad index %q", args[1])
		}
		v, err := parseValue(args[2], 0)
		if err != nil {
			return "", err
		}
		return "", r.SW.RegisterWrite(args[0], idx, v)
	case "register_read":
		if len(args) != 2 {
			return "", fmt.Errorf("register_read wants <register> <index>")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad index %q", args[1])
		}
		v, err := r.SW.RegisterRead(args[0], idx)
		if err != nil {
			return "", err
		}
		return v.String(), nil
	case "counter_read":
		if len(args) != 2 {
			return "", fmt.Errorf("counter_read wants <counter> <index>")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad index %q", args[1])
		}
		p, b, err := r.SW.CounterRead(args[0], idx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("packets=%d bytes=%d", p, b), nil
	case "counter_reset":
		if len(args) != 2 {
			return "", fmt.Errorf("counter_reset wants <counter> <index>")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad index %q", args[1])
		}
		return "", r.SW.CounterReset(args[0], idx)
	case "meter_set_rates":
		if len(args) != 4 {
			return "", fmt.Errorf("meter_set_rates wants <meter> <index> <yellow> <red>")
		}
		idx, err := strconv.Atoi(args[1])
		if err != nil {
			return "", fmt.Errorf("bad index %q", args[1])
		}
		y, err1 := strconv.ParseUint(args[2], 0, 64)
		rd, err2 := strconv.ParseUint(args[3], 0, 64)
		if err1 != nil || err2 != nil {
			return "", fmt.Errorf("bad rates %v", args[2:])
		}
		return "", r.SW.MeterSetRates(args[0], idx, y, rd)
	case "meter_tick":
		if len(args) != 1 {
			return "", fmt.Errorf("meter_tick wants <meter>")
		}
		return "", r.SW.MeterTick(args[0])
	default:
		return "", fmt.Errorf("unknown command %q", cmd)
	}
}

func (r *Interp) tableAdd(args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("table_add wants <table> <action> <match>... => <args>...")
	}
	tableName, action := args[0], args[1]
	rest := args[2:]
	sep := -1
	for i, a := range rest {
		if a == "=>" {
			sep = i
			break
		}
	}
	var matchToks, argToks []string
	if sep < 0 {
		matchToks = rest
	} else {
		matchToks = rest[:sep]
		argToks = rest[sep+1:]
	}
	reads, err := r.SW.TableReads(tableName)
	if err != nil {
		return "", err
	}
	if len(matchToks) != len(reads) {
		return "", fmt.Errorf("table %s wants %d match fields, got %d", tableName, len(reads), len(matchToks))
	}
	params := make([]sim.MatchParam, len(reads))
	needsPriority := false
	for i, spec := range reads {
		p, err := parseMatch(matchToks[i], spec)
		if err != nil {
			return "", fmt.Errorf("match %d: %w", i, err)
		}
		params[i] = p
		if spec.Kind == ast.MatchTernary || spec.Kind == ast.MatchRange {
			needsPriority = true
		}
	}
	actParams, err := r.SW.ActionParams(action)
	if err != nil {
		return "", err
	}
	priority := 0
	if needsPriority && len(argToks) == len(actParams)+1 {
		priority, err = strconv.Atoi(argToks[len(argToks)-1])
		if err != nil {
			return "", fmt.Errorf("bad priority %q", argToks[len(argToks)-1])
		}
		argToks = argToks[:len(argToks)-1]
	}
	if len(argToks) != len(actParams) {
		return "", fmt.Errorf("action %s wants %d args, got %d", action, len(actParams), len(argToks))
	}
	actionArgs, err := parseArgs(argToks)
	if err != nil {
		return "", err
	}
	h, err := r.SW.TableAdd(tableName, action, params, actionArgs, priority)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("handle %d", h), nil
}

func (r *Interp) tableSetDefault(args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("table_set_default wants <table> <action> [args...]")
	}
	actionArgs, err := parseArgs(args[2:])
	if err != nil {
		return "", err
	}
	return "", r.SW.TableSetDefault(args[0], args[1], actionArgs)
}

func (r *Interp) tableModify(args []string) (string, error) {
	if len(args) < 3 {
		return "", fmt.Errorf("table_modify wants <table> <action> <handle> [args...]")
	}
	h, err := strconv.Atoi(args[2])
	if err != nil {
		return "", fmt.Errorf("bad handle %q", args[2])
	}
	actionArgs, err := parseArgs(args[3:])
	if err != nil {
		return "", err
	}
	return "", r.SW.TableModify(args[0], h, args[1], actionArgs)
}

func parseArgs(toks []string) ([]bitfield.Value, error) {
	out := make([]bitfield.Value, len(toks))
	for i, tok := range toks {
		v, err := parseValue(tok, 0)
		if err != nil {
			return nil, fmt.Errorf("arg %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// parseMatch parses one match token according to its read spec.
func parseMatch(tok string, spec sim.ReadSpec) (sim.MatchParam, error) {
	switch spec.Kind {
	case ast.MatchExact:
		v, err := parseValue(tok, spec.Width)
		if err != nil {
			return sim.MatchParam{}, err
		}
		return sim.Exact(v), nil
	case ast.MatchTernary:
		val, mask, found := strings.Cut(tok, "&&&")
		if !found {
			return sim.MatchParam{}, fmt.Errorf("ternary match %q wants value&&&mask", tok)
		}
		v, err := parseValue(val, spec.Width)
		if err != nil {
			return sim.MatchParam{}, err
		}
		m, err := parseValue(mask, spec.Width)
		if err != nil {
			return sim.MatchParam{}, err
		}
		return sim.Ternary(v, m), nil
	case ast.MatchLPM:
		val, plenStr, found := strings.Cut(tok, "/")
		if !found {
			return sim.MatchParam{}, fmt.Errorf("lpm match %q wants value/prefixlen", tok)
		}
		v, err := parseValue(val, spec.Width)
		if err != nil {
			return sim.MatchParam{}, err
		}
		plen, err := strconv.Atoi(plenStr)
		if err != nil || plen < 0 || plen > spec.Width {
			return sim.MatchParam{}, fmt.Errorf("bad prefix length %q", plenStr)
		}
		return sim.LPM(v, plen), nil
	case ast.MatchRange:
		lo, hi, found := strings.Cut(tok, "->")
		if !found {
			return sim.MatchParam{}, fmt.Errorf("range match %q wants lo->hi", tok)
		}
		l, err := parseValue(lo, spec.Width)
		if err != nil {
			return sim.MatchParam{}, err
		}
		h, err := parseValue(hi, spec.Width)
		if err != nil {
			return sim.MatchParam{}, err
		}
		return sim.Range(l, h), nil
	case ast.MatchValid:
		switch tok {
		case "1", "true":
			return sim.Valid(true), nil
		case "0", "false":
			return sim.Valid(false), nil
		}
		return sim.MatchParam{}, fmt.Errorf("valid match %q wants 0 or 1", tok)
	}
	return sim.MatchParam{}, fmt.Errorf("unsupported match kind %q", spec.Kind)
}

// parseValue parses a numeric, MAC, or IPv4 token. width 0 derives the width
// from the token (natural bit length; 48 for MACs, 32 for IPs).
func parseValue(tok string, width int) (bitfield.Value, error) {
	if strings.Count(tok, ":") == 5 {
		m, err := pkt.ParseMAC(tok)
		if err != nil {
			return bitfield.Value{}, err
		}
		w := width
		if w == 0 {
			w = 48
		}
		return bitfield.FromBytes(w, m[:]), nil
	}
	if strings.Count(tok, ".") == 3 && !strings.HasPrefix(tok, "0x") {
		ip, err := pkt.ParseIP4(tok)
		if err != nil {
			return bitfield.Value{}, err
		}
		w := width
		if w == 0 {
			w = 32
		}
		return bitfield.FromBytes(w, ip[:]), nil
	}
	n := new(big.Int)
	if _, ok := n.SetString(tok, 0); !ok {
		return bitfield.Value{}, fmt.Errorf("bad value %q", tok)
	}
	if n.Sign() < 0 {
		return bitfield.Value{}, fmt.Errorf("negative value %q", tok)
	}
	w := width
	if w == 0 {
		w = n.BitLen()
		if w == 0 {
			w = 1
		}
	}
	return bitfield.FromBig(w, n), nil
}

// ParseMatchToken parses one match token for a read spec (exported for the
// DPMU's command interface, which parses virtual entries against the
// emulated program's tables using the same syntax).
func ParseMatchToken(tok string, spec sim.ReadSpec) (sim.MatchParam, error) {
	return parseMatch(tok, spec)
}

// ParseValueToken parses a numeric, MAC, or IPv4 value token (width 0
// derives the width from the token).
func ParseValueToken(tok string, width int) (bitfield.Value, error) {
	return parseValue(tok, width)
}

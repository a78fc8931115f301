package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hyper4/internal/core/ctl"
)

// writeGen produces a seeded stream of single-op writes — add, modify and
// delete on an l2_switch dmac table and a router ipv4_lpm table — that never
// touch an address the traffic uses, so the oracle stays valid while they
// land.
type writeGen struct {
	rng       *rand.Rand
	l2, rtr   string
	l2H, rtrH []entry // entries this stream added and not deleted
	fresh     int
}

func newWriteGen(seed int64, def *workloadDef) *writeGen {
	return &writeGen{rng: rand.New(rand.NewSource(seed ^ 0x7717e5)), l2: def.l2VDev, rtr: def.rtrVDev}
}

// entry is one added table entry: its handle and match tokens.
type entry struct {
	handle int
	match  string
}

// pending is one generated write: its textual op and how to update the
// generator's entry pools once it applied.
type pending struct {
	line string
	vdev string
	// pool is the entry pool an add appends to (with match); nil for
	// modify/delete.
	pool  *[]entry
	match string
}

// poolTarget is how many entries each pool holds in steady state: the
// stream adds below it, deletes above it, and otherwise picks add, modify or
// delete at random, so table sizes — and with them the cost of every write
// — stay put however long a run lasts.
const poolTarget = 8

func (g *writeGen) next() pending {
	l2 := g.rng.Intn(2) == 0
	pool, vdev := &g.rtrH, g.rtr
	if l2 {
		pool, vdev = &g.l2H, g.l2
	}
	op := g.rng.Intn(3)
	switch {
	case len(*pool) < poolTarget:
		op = 0
	case len(*pool) > poolTarget:
		op = 2
	}
	switch op {
	case 0:
		g.fresh++
		if l2 {
			// 02:f0:… MACs are never traffic endpoints.
			m := fmt.Sprintf("02:f0:00:%02x:%02x:%02x", byte(g.fresh>>16), byte(g.fresh>>8), byte(g.fresh))
			return pending{vdev: vdev, pool: pool, match: m,
				line: fmt.Sprintf("%s table_add dmac forward %s => %d", vdev, m, 1+g.rng.Intn(2))}
		}
		// 10.128.0.0/9 is never a traffic destination.
		m := fmt.Sprintf("10.%d.%d.0/24", 128+(g.fresh>>8)%128, byte(g.fresh))
		return pending{vdev: vdev, pool: pool, match: m,
			line: fmt.Sprintf("%s table_add ipv4_lpm set_nhop %s => 10.250.0.%d %d", vdev, m, 1+g.rng.Intn(200), 1+g.rng.Intn(2))}
	case 1:
		en := (*pool)[g.rng.Intn(len(*pool))]
		if l2 {
			return pending{vdev: vdev, line: fmt.Sprintf("%s table_modify dmac %d forward %s => %d", vdev, en.handle, en.match, 1+g.rng.Intn(2))}
		}
		return pending{vdev: vdev, line: fmt.Sprintf("%s table_modify ipv4_lpm %d set_nhop %s => 10.250.0.%d %d",
			vdev, en.handle, en.match, 1+g.rng.Intn(200), 1+g.rng.Intn(2))}
	default:
		i := g.rng.Intn(len(*pool))
		en := (*pool)[i]
		(*pool)[i] = (*pool)[len(*pool)-1]
		*pool = (*pool)[:len(*pool)-1]
		table := "ipv4_lpm"
		if l2 {
			table = "dmac"
		}
		return pending{vdev: vdev, line: fmt.Sprintf("%s table_delete %s %d", vdev, table, en.handle)}
	}
}

// writeSample is one timed write.
type writeSample struct {
	ack, live time.Duration
	// walBytes is the write-ahead log growth the write caused; -1 when a
	// snapshot rotation truncated the log in between.
	walBytes int64
	failed   bool
}

// apply runs one write through s's control plane and times it: ack is the
// WriteBatch call to its return (journal fsync included); live is the call
// until FusionStatus shows the switch's current generation compiled, with
// the written vdev fused if it was fused before.
func apply(s *stack, p pending, wasFused map[string]bool, wal string) writeSample {
	op, _, err := ctl.ParseLine(p.line)
	if err != nil || op == nil {
		return writeSample{failed: true}
	}
	var before int64
	if wal != "" {
		before = fileSize(wal)
	}
	t0 := time.Now()
	res, err := s.cp.WriteBatch(owner, []ctl.Op{*op})
	ack := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hp4perf: write %q: %v\n", p.line, err)
		return writeSample{ack: ack, failed: true}
	}
	if p.pool != nil {
		*p.pool = append(*p.pool, entry{handle: res[0].Handle, match: p.match})
	}
	ws := writeSample{ack: ack, walBytes: -1}
	if wal != "" {
		if after := fileSize(wal); after >= before {
			ws.walBytes = after - before
		}
	}
	for {
		if fusionLive(s, p.vdev, wasFused[p.vdev]) {
			ws.live = time.Since(t0)
			return ws
		}
		if time.Since(t0) > 2*time.Second {
			ws.failed = true
			return ws
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func fusionLive(s *stack, vdev string, wantFused bool) bool {
	st := s.d.FusionStatus()
	if st.Generation != s.sw.Generation() {
		return false
	}
	if !wantFused {
		return true
	}
	for _, v := range st.VDevs {
		if v.Name == vdev {
			return v.Fused
		}
	}
	return false
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// walPath is the journal's write-ahead log file.
func walPath(j *ctl.Journal) string {
	if j == nil {
		return ""
	}
	return filepath.Join(j.Dir(), "wal.log")
}

// writeLoop issues writes for d, or until stop closes — open loop at rate
// per second, or back to back when rate is 0 — and returns the samples, the
// ops in issue order, and the writer's worst lateness against its schedule.
// onWrite, when set, runs after each write.
func writeLoop(s *stack, g *writeGen, rate float64, d time.Duration, stop <-chan struct{}, wasFused map[string]bool, onWrite func()) (samples []writeSample, ops []pending, lateMax time.Duration) {
	start := time.Now()
	wal := walPath(s.jrnl)
	for k := 0; time.Since(start) < d; k++ {
		if rate > 0 {
			due := start.Add(time.Duration(float64(k) * 1e9 / rate))
			if due.Sub(start) >= d {
				break
			}
			if wait := time.Until(due); wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-stop:
					t.Stop()
					return samples, ops, lateMax
				}
			} else if -wait > lateMax {
				lateMax = -wait
			}
		}
		select {
		case <-stop:
			return samples, ops, lateMax
		default:
		}
		p := g.next()
		samples = append(samples, apply(s, p, wasFused, wal))
		ops = append(ops, p)
		if onWrite != nil {
			onWrite()
		}
	}
	return samples, ops, lateMax
}

// replayJournalCost replays a run's write ops, quiesced, on two fresh twins
// of the workload's switch — one journaling into dir, one not — alternating
// op by op, and returns both sets of ack times. Their difference is the
// journal's own cost per write.
func replayJournalCost(def *workloadDef, ops []pending, wasFused map[string]bool, dir string) (journaled, plain []int64, err error) {
	jt, err := newStack(def, stackOpts{fusion: true, journalDir: dir})
	if err != nil {
		return nil, nil, fmt.Errorf("journaled twin: %w", err)
	}
	defer jt.close()
	pt, err := newStack(def, stackOpts{fusion: true})
	if err != nil {
		return nil, nil, fmt.Errorf("unjournaled twin: %w", err)
	}
	defer pt.close()
	for _, p := range ops {
		p.pool = nil
		a := apply(jt, p, wasFused, "")
		b := apply(pt, p, wasFused, "")
		if a.failed || b.failed {
			return nil, nil, fmt.Errorf("twin replay of %q failed", p.line)
		}
		journaled = append(journaled, int64(a.ack))
		plain = append(plain, int64(b.ack))
	}
	return journaled, plain, nil
}

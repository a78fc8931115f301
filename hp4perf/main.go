// Command hp4perf is the repository benchmark: it drives a whole HyPer4
// switch from outside — transports → packet I/O runtime → persona switch and
// fused fast path for frames, control plane → journal → DPMU → fuse.Build
// for writes — and checks every emitted frame against an interpreted
// reference.
//
//	hp4perf --workload slices-chan --seed 1 --seconds 15 --trace 0
//
// Workloads: slices-chan, slices-udp, churn, mesh (see BENCHMARK.json and
// METRICS.md). With --trace 0 it reports the end-to-end metrics, with
// --trace 1 the per-layer ones. Human-readable lines come first; the last
// line of standard output is one JSON object {correct, attempted, failed,
// metrics}. Scratch files (the churn journal) live under --scratch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"hyper4/internal/core/dpmu"
	"hyper4/internal/core/fuse"
	"hyper4/internal/sim"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string
	// corrupt, when set, plants a wrong expectation in the oracle (the
	// benchmark's own test uses it to prove a mismatch fails the run).
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload: slices-chan, slices-udp, churn or mesh")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&traceN, "trace", 0, "1 for the traced per-layer run")
	flag.StringVar(&o.scratch, "scratch", ".bench_build/scratch", "directory for the run's scratch files (journal)")
	flag.Parse()
	o.trace = traceN == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hp4perf:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printer writes human-readable lines; the JSON result is always last.
type printer struct{ w *os.File }

func (p printer) f(format string, a ...any) {
	if p.w != nil {
		fmt.Fprintf(p.w, format+"\n", a...)
	}
}

// rig is one measured stack plus its traffic engine and scratch state.
type rig struct {
	def      *workloadDef
	tmpls    []tmpl
	s        *stack
	e        *engine
	udpGens  []*net.UDPConn
	wasFused map[string]bool
	status   dpmu.FusionStatus
	dir      string
}

func (r *rig) close() {
	if r.s != nil {
		r.s.close()
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
	for _, c := range r.udpGens {
		_ = c.Close()
	}
	if r.e != nil {
		r.e.stopReceivers()
	}
}

// generators is how many goroutines generate load: at most nproc, one fewer
// when a write stream runs beside the traffic.
func generators(def *workloadDef) int {
	n := goruntime.NumCPU()
	if def.writesWithTraffic && n > 1 {
		n--
	}
	if n > len(def.ports) {
		n = len(def.ports)
	}
	return n
}

// prepare does the benchmark's own preparation, which set-up time leaves
// out: it derives the oracle and, on UDP, binds the generator sockets.
func prepare(o options, def *workloadDef) (*rig, error) {
	tmpls, err := deriveOracle(def)
	if err != nil {
		return nil, err
	}
	if o.corrupt {
		plantWrongExpectation(tmpls)
	}
	r := &rig{def: def, tmpls: tmpls}
	if def.udp {
		for i := 0; i < generators(def); i++ {
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				r.close()
				return nil, err
			}
			_ = c.SetReadBuffer(4 << 20)
			_ = c.SetWriteBuffer(4 << 20)
			r.udpGens = append(r.udpGens, c)
		}
	}
	return r, nil
}

// newStack builds a stack for the workload, wired to the generator's
// sockets and, when the workload journals, journaling into a fresh
// directory named by n: the switch's own start-up, which setup_s times.
func (r *rig) newStack(o options, tr *tracer, n int) (s *stack, dir string, err error) {
	so := stackOpts{fusion: true, io: true, tr: tr}
	for _, c := range r.udpGens {
		so.genAddrs = append(so.genAddrs, c.LocalAddr().(*net.UDPAddr))
	}
	if r.def.journal {
		dir = filepath.Join(o.scratch, fmt.Sprintf("journal-%d-%d", os.Getpid(), n))
		_ = os.RemoveAll(dir)
		so.journalDir = dir
	}
	if s, err = newStack(r.def, so); err != nil {
		_ = os.RemoveAll(dir)
		return nil, "", err
	}
	return s, dir, nil
}

// build builds the rig's measured stack and returns how long it took.
func (r *rig) build(o options, tr *tracer, n int) (float64, error) {
	t0 := time.Now()
	s, dir, err := r.newStack(o, tr, n)
	if err != nil {
		return 0, err
	}
	took := time.Since(t0).Seconds()
	r.s, r.dir = s, dir
	return took, nil
}

// timeSetup builds one more stack beside the measured one, discards it, and
// returns how long the build took.
func (r *rig) timeSetup(o options, n int) (float64, error) {
	t0 := time.Now()
	s, dir, err := r.newStack(o, nil, n)
	if err != nil {
		return 0, err
	}
	took := time.Since(t0).Seconds()
	s.close()
	_ = os.RemoveAll(dir)
	return took, nil
}

// start records the stack's fusion status and starts the traffic engine's
// receivers.
func (r *rig) start(o options, tr *tracer) {
	r.status = r.s.d.FusionStatus()
	r.wasFused = map[string]bool{}
	for _, v := range r.status.VDevs {
		r.wasFused[v.Name] = v.Fused
	}
	r.e = newEngine(r.s, r.def, r.tmpls, o.seed, generators(r.def), r.udpGens)
	r.e.tr = tr
	r.e.startReceivers()
}

// setup prepares, builds and starts one rig.
func setup(o options, def *workloadDef, tr *tracer, n int) (*rig, error) {
	r, err := prepare(o, def)
	if err != nil {
		return nil, err
	}
	if _, err := r.build(o, tr, n); err != nil {
		r.close()
		return nil, err
	}
	r.start(o, tr)
	return r, nil
}

// plantWrongExpectation flips one byte of the first forwarded template's
// expected output.
func plantWrongExpectation(tmpls []tmpl) {
	for i := range tmpls {
		if tmpls[i].outPort >= 0 {
			out := append([]byte(nil), tmpls[i].out...)
			out[0] ^= 0xff
			tmpls[i].out = out
			return
		}
	}
}

// Set-up repetitions: at least minSetups, and short set-ups repeat until
// they add up to minSetupTime, so their median rests on enough samples to
// be steady. They are spread over the run's rounds.
const (
	minSetups    = 3
	minSetupTime = 1500 * time.Millisecond
	maxSetups    = 15
)

// setupCount is how many set-ups a run makes when one takes first seconds.
func setupCount(first float64) int {
	n := int(math.Ceil(minSetupTime.Seconds() / first))
	return min(max(n, minSetups), maxSetups)
}

// phases is the time split of one run: each phase's total over all rounds,
// the warm-up before the first round, and the warm-up that starts each
// round's loops.
type phases struct{ closed, open, writes, warm, roundWarm time.Duration }

func split(o options, def *workloadDef) phases {
	total := o.seconds * float64(time.Second)
	part := func(pct int) time.Duration { return time.Duration(total * float64(pct) / 100) }
	p := phases{closed: part(def.phasePct[0]), open: part(def.phasePct[1]), writes: part(def.phasePct[2])}
	p.warm = min(p.closed/10, 500*time.Millisecond)
	p.roundWarm = min(p.closed/time.Duration(10*def.rounds), 20*time.Millisecond)
	return p
}

// outcome is one measured pass over the workload.
type outcome struct {
	// rates are the closed loop's windowed delivery rates.
	rates []float64
	// lat is the open loop's latency samples in due-time order; late the
	// generator's lateness samples.
	lat        []int64
	late       []int64
	writes     []writeSample
	ops        []pending
	writeLate  time.Duration
	attempted  int64
	failed     int64
	mismatches int64
	// traced-only totals over the closed loops
	closedCtr       counters
	closedCPU       time.Duration
	closedWall      time.Duration
	closedPkts      int64
	statsStart      sim.Stats
	statsEnd        sim.Stats
	buildsStart     uint64
	buildsEnd       uint64
	hits            uint64
	rxDrops, txDrop uint64
	err             error
}

// tally adds a settled traffic phase's outcomes.
func (out *outcome) tally(st *phaseStats) {
	out.attempted += st.attempted()
	out.failed += st.failed()
	out.mismatches += st.mismatches()
}

func (out *outcome) addWrites(ws []writeSample, ops []pending, late time.Duration) {
	out.writes = append(out.writes, ws...)
	out.ops = append(out.ops, ops...)
	out.writeLate = max(out.writeLate, late)
}

// measure runs the workload's rounds on a set-up rig: in each, a closed
// loop, an open loop and the write stream — beside the traffic on churn,
// after it elsewhere. between, when set, runs before each round.
func measure(o options, r *rig, tr *tracer, between func(round int) error) outcome {
	def, e, s := r.def, r.e, r.s
	p := split(o, def)
	rounds := time.Duration(def.rounds)
	var out outcome
	g := newWriteGen(o.seed, def)
	var onWrite func()
	if tr != nil {
		tr.hits.note(s.sw, false)
		onWrite = func() { tr.hits.note(s.sw, true) }
	}
	out.statsStart = s.sw.Stats()
	out.buildsStart = s.d.FusionStatus().Builds

	// An unmeasured warm-up loop; its frames are still checked.
	st := e.newPhase()
	e.closedLoop(st, p.warm, 0)
	e.drain(st, 2*time.Second)
	out.tally(st)

	for i := 0; i < def.rounds; i++ {
		if between != nil {
			if out.err = between(i); out.err != nil {
				return out
			}
		}
		// Each loop starts from a collected heap, so runs agree on the
		// garbage collector's state when timing begins.
		goruntime.GC()
		type writeRes struct {
			ws   []writeSample
			ops  []pending
			late time.Duration
		}
		var wdone chan writeRes
		stopWrites := make(chan struct{})
		if def.writesWithTraffic {
			wdone = make(chan writeRes, 1)
			go func() {
				ws, ops, late := writeLoop(s, g, def.writesPerSec, math.MaxInt64, stopWrites, r.wasFused, onWrite)
				wdone <- writeRes{ws, ops, late}
			}()
		}

		st := e.newPhase()
		var c0 counters
		if tr != nil {
			c0 = tr.snap()
		}
		cpu0, wall0, pk0 := cpuTime(), time.Now(), s.sw.Stats().PacketsIn
		out.rates = append(out.rates, e.closedLoop(st, p.closed/rounds, p.roundWarm)...)
		if tr != nil {
			out.closedCtr = out.closedCtr.add(tr.snap().sub(c0))
			out.closedCPU += cpuTime() - cpu0
			out.closedWall += time.Since(wall0)
			out.closedPkts += int64(s.sw.Stats().PacketsIn - pk0)
		}
		e.drain(st, 2*time.Second)
		out.tally(st)

		goruntime.GC()
		st = e.newPhase()
		late, err := e.openLoop(p.open/rounds, p.roundWarm, def.openPPS, e.gens)
		e.drain(st, 2*time.Second)
		out.tally(st)
		out.late = append(out.late, late...)
		out.lat = append(out.lat, e.latencies()...)

		if def.writesWithTraffic {
			close(stopWrites)
			w := <-wdone
			out.addWrites(w.ws, w.ops, w.late)
		} else {
			goruntime.GC()
			out.addWrites(writeLoop(s, g, def.writesPerSec, p.writes/rounds, nil, r.wasFused, onWrite))
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	for _, w := range out.writes {
		out.attempted++
		if w.failed {
			out.failed++
			out.mismatches++
		}
	}
	out.statsEnd = s.sw.Stats()
	out.buildsEnd = s.d.FusionStatus().Builds
	if tr != nil {
		out.hits = tr.hits.total()
	}
	for _, pm := range s.rt.Metrics().Ports {
		out.rxDrops += pm.RxDrops
		out.txDrop += pm.TxDrops
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func run(o options, w *os.File) (*result, error) {
	pr := printer{w}
	def, err := buildWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, err
	}
	pr.f("fingerprint %s", fingerprint(def, o.scratch))
	if o.trace {
		return runTraced(o, def, pr)
	}
	r, err := prepare(o, def)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	// The measured stack is the first set-up; the others are spread over
	// the rounds, and setup_s is their median.
	first, err := r.build(o, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setups := []float64{first}
	extra := setupCount(first) - 1
	between := func(round int) error {
		for len(setups)-1 < (round+1)*extra/def.rounds {
			took, err := r.timeSetup(o, len(setups))
			if err != nil {
				return fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, took)
		}
		return nil
	}
	r.start(o, nil)
	reportFusion(pr, r.status)
	out := measure(o, r, nil, between)
	if out.err != nil {
		return nil, out.err
	}

	acks, lives := durs(out.writes, func(w writeSample) time.Duration { return w.ack }),
		durs(out.writes, func(w writeSample) time.Duration { return w.live })
	res := &result{Correct: out.mismatches == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{
		"fwd_pps":           {median(out.rates), "1/s"},
		"lat_p50_us":        {windowed(out.lat, 0.50, def.windows) / 1e3, "us"},
		"write_ack_p50_ms":  {windowed(acks, 0.50, def.windows) / 1e6, "ms"},
		"write_live_p50_ms": {windowed(lives, 0.50, def.windows) / 1e6, "ms"},
		"setup_s":           {median(setups), "s"},
	}}
	pr.f("samples: %d rate windows, %d frame latencies, %d writes, %d set-ups; writer max lateness %.2f ms, generator lateness p99 %.1f us",
		len(out.rates), len(out.lat), len(acks), len(setups), out.writeLate.Seconds()*1e3, quantile(out.late, 0.99)/1e3)
	// These three are printed, not put in the result: loss_ratio reads 0
	// (it is carried as failed/attempted), and on a contended shared runner
	// the p99s spread run to run beyond any bound the result may carry.
	pr.f("metric loss_ratio = %.6g ratio (frames and writes missing or wrong: %d of %d)", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	pr.f("metric lat_p99_us = %.6g us", windowed(out.lat, 0.99, def.windows)/1e3)
	pr.f("metric write_ack_p99_ms = %.6g ms", windowed(acks, 0.99, def.windows)/1e6)
	printMetrics(pr, res.Metrics)
	if out.mismatches > 0 {
		pr.f("FAIL: %d outputs did not match the interpreted reference", out.mismatches)
	}
	return res, nil
}

func reportFusion(pr printer, st dpmu.FusionStatus) {
	var parts []string
	for _, v := range st.VDevs {
		parts = append(parts, fmt.Sprintf("%s=%v", v.Name, v.Fused))
	}
	pr.f("fusion at setup: enabled=%v plans=%d vdevs[%s] findings=%d", st.Enabled, st.Plans, strings.Join(parts, " "), len(st.Findings))
	for _, f := range st.Findings {
		pr.f("  finding: %s", f.String())
	}
}

func printMetrics(pr printer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pr.f("metric %s = %.6g %s", n, m[n].Value, m[n].Unit)
	}
}

// runTraced measures the per-layer metrics: one short untraced closed loop
// for the tracing overhead, then the full workload through the wrapped
// stack, then direct timings of the fast path, fuse.Build and Checkpoint.
func runTraced(o options, def *workloadDef, pr printer) (*result, error) {
	p := split(o, def)
	r, err := setup(o, def, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	reportFusion(pr, r.status)
	st := r.e.newPhase()
	untraced := median(r.e.closedLoop(st, p.closed, p.warm))
	r.e.drain(st, 2*time.Second)
	r.close()

	tr := &tracer{}
	r, err = setup(o, def, tr, 1)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer r.close()
	out := measure(o, r, tr, nil)
	fwdPPS := median(out.rates)
	if out.err != nil {
		return nil, out.err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	c := out.closedCtr
	pkts := float64(out.statsEnd.PacketsIn - out.statsStart.PacketsIn)
	put("gen.late_p99_us", quantile(out.late, 0.99)/1e3, "us")
	put("transport.send_ns", ratio(float64(c.sendNs), float64(c.sends)), "ns")
	put("transport.tx_errors", float64(tr.txErrs.Load()), "count")
	var maxShard, sumShard int64
	for _, n := range c.shard {
		sumShard += n
		if n > maxShard {
			maxShard = n
		}
	}
	put("runtime.shard_max_share", ratio(float64(maxShard), float64(sumShard)), "ratio")
	put("runtime.burst_frames", ratio(float64(c.frames), float64(c.calls)), "frames")
	put("runtime.proc_busy_share", ratio(float64(c.busyNs), float64(out.closedWall)*float64(tr.workers)), "ratio")
	put("runtime.rx_drops", float64(out.rxDrops), "count")
	put("runtime.tx_drops", float64(out.txDrop), "count")
	put("sim.process_ns", ratio(float64(c.busyNs), float64(c.frames)), "ns")
	put("sim.applies_per_pkt", ratio(float64(out.statsEnd.TableApplies-out.statsStart.TableApplies), pkts), "count")
	put("sim.passes_per_pkt", ratio(float64(out.statsEnd.Resubmits-out.statsStart.Resubmits+out.statsEnd.Recirculates-out.statsStart.Recirculates), pkts), "count")
	put("fuse.hit_share", ratio(float64(out.hits), pkts), "ratio")
	writes := float64(len(out.writes))
	put("fuse.builds_per_write", ratio(float64(out.buildsEnd-out.buildsStart), writes), "count")
	acks := durs(out.writes, func(w writeSample) time.Duration { return w.ack })
	put("ctl.write_ms", quantile(acks, 0.5)/1e6, "ms")
	put("tail.lat_p99_us", windowed(out.lat, 0.99, def.windows)/1e3, "us")
	put("tail.write_ack_p99_ms", windowed(acks, 0.99, def.windows)/1e6, "ms")
	var journalSelf float64
	if def.journal {
		jdir := filepath.Join(o.scratch, fmt.Sprintf("journal-%d-twin", os.Getpid()))
		_ = os.RemoveAll(jdir)
		journaled, plain, err := replayJournalCost(def, out.ops, r.wasFused, jdir)
		_ = os.RemoveAll(jdir)
		if err != nil {
			return nil, err
		}
		journalSelf = (quantile(journaled, 0.5) - quantile(plain, 0.5)) / 1e6
	}
	put("journal.self_ms", journalSelf, "ms")
	var walBytes, walN float64
	for _, w := range out.writes {
		if w.walBytes >= 0 {
			walBytes += float64(w.walBytes)
			walN++
		}
	}
	put("journal.bytes_per_write", ratio(walBytes, walN), "bytes")

	// Direct timings on the quiesced switch.
	put("fuse.runfast_ns", timeRunFast(r), "ns")
	put("sim.allocs_per_pkt", allocsPerPkt(r), "count")
	put("fuse.build_ms", timeBuild(r.s.d), "ms")
	put("dpmu.checkpoint_ms", timeCheckpoint(r.s.d), "ms")
	put("fuse.vdevs_fused", float64(r.status.Plans), "count")

	put("trace.fwd_pps_untraced", untraced, "1/s")
	put("trace.fwd_pps_traced", fwdPPS, "1/s")
	put("trace.overhead_share", 1-ratio(fwdPPS, untraced), "ratio")
	cpuPerFrame := ratio(float64(out.closedCPU), float64(out.closedPkts))
	layers := ratio(float64(c.sendNs+c.busyNs+c.genNs), float64(out.closedPkts))
	put("cpu.ns_per_frame", cpuPerFrame, "ns")
	put("layers.ns_per_frame", layers, "ns")
	put("layers.gap_share", 1-ratio(layers, cpuPerFrame), "ratio")
	pr.f("accounting (closed loop): process CPU %.0f ns/frame; timed layers %.0f ns/frame = transport send %.0f + sim %.0f + generator/checker %.0f; "+
		"gap %.0f%% (RX loops and Recv, rings, wake-ups, GC; the spans are wall-clock, so time descheduled inside one counts and the gap can go negative)",
		cpuPerFrame, layers, ratio(float64(c.sendNs), float64(out.closedPkts)), ratio(float64(c.busyNs), float64(out.closedPkts)),
		ratio(float64(c.genNs), float64(out.closedPkts)), 100*(1-ratio(layers, cpuPerFrame)))
	pr.f("tracing overhead: fwd_pps untraced %.0f vs traced %.0f", untraced, fwdPPS)
	printMetrics(pr, m)
	return &result{Correct: out.mismatches == 0, Attempted: out.attempted, Failed: out.failed, Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayFrames is how many template frames the direct replays run.
const replayFrames = 20000

func timeRunFast(r *rig) float64 {
	eng, ok := r.s.sw.FastPath().(*fuse.Engine)
	if !ok || eng == nil {
		return 0
	}
	tm := r.e.tmpls
	t0 := time.Now()
	for i := 0; i < replayFrames; i++ {
		t := &tm[i%len(tm)]
		eng.RunFast(r.s.sw, t.in, t.port)
	}
	return float64(time.Since(t0).Nanoseconds()) / replayFrames
}

func allocsPerPkt(r *rig) float64 {
	tm := r.e.tmpls
	n := replayFrames
	if r.status.Plans == 0 {
		n = replayFrames / 100 // the interpreter is ~1000x slower
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t := &tm[i%len(tm)]
		_, _, _ = r.s.sw.Process(t.in, t.port)
	}
	goruntime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func timeBuild(d *dpmu.DPMU) float64 {
	st := d.FusionStatus()
	vds := make([]fuse.VDev, 0, len(st.VDevs))
	for _, v := range st.VDevs {
		vds = append(vds, fuse.VDev{Name: v.Name, PID: v.PID})
	}
	var ts []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		fuse.Build(d.SW, d.Config(), vds)
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

func timeCheckpoint(d *dpmu.DPMU) float64 {
	var ts []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		d.Checkpoint()
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

func durs(ws []writeSample, f func(writeSample) time.Duration) []int64 {
	var out []int64
	for _, w := range ws {
		if !w.failed {
			out = append(out, int64(f(w)))
		}
	}
	return out
}

// quantile is the linear-interpolated q-quantile of xs (NaN when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return float64(s[len(s)-1])
	}
	frac := pos - float64(lo)
	return float64(s[lo])*(1-frac) + float64(s[lo+1])*frac
}

// minWindow is the fewest samples a window's quantile rests on: its p99
// then has at least ten samples beyond it.
const minWindow = 1000

// windowed cuts time-ordered samples into as many equal windows as keep
// minWindow samples each, up to maxK, and returns the median over windows
// of each window's q-quantile.
func windowed(all []int64, q float64, maxK int) float64 {
	k := min(max(len(all)/minWindow, 1), maxK)
	var qs []float64
	for i := 0; i < k; i++ {
		if w := all[i*len(all)/k : (i+1)*len(all)/k]; len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	pktio "hyper4/internal/runtime"
)

// The traffic engine: generator goroutines send stamped copies of the
// templates into the switch's ports, receivers take every frame the switch
// emits, look its stamp up, and check it against the oracle. Load comes from
// at most nproc generator goroutines (and at most nproc UDP sockets);
// receivers only collect.

// recRing is the number of in-flight send records; far above any window or
// open-loop backlog, so a slot is only reused long after its frame settled.
const recRing = 1 << 17

type record struct {
	seq   atomic.Uint64 // published last; 0 = empty
	tmpl  atomic.Int32
	phase atomic.Int32
	due   atomic.Int64 // ns since the engine's base
	got   atomic.Uint32
}

// phaseStats counts one traffic phase's outcomes.
type phaseStats struct {
	sentFwd, sentDrop atomic.Int64
	okFwd             atomic.Int64
	// badFwd: expected frames that arrived wrong (bytes or port); badDrop:
	// expected drops that arrived anyway; badUnknown: frames whose stamp
	// matches no outstanding send (stale, duplicate or garbage).
	badFwd, badDrop, badUnknown atomic.Int64
	// windowed marks a closed-loop phase: its expected frames hold a slot of
	// their ingress port's in-flight window until they arrive.
	windowed atomic.Bool
}

func (p *phaseStats) attempted() int64 { return p.sentFwd.Load() + p.sentDrop.Load() }

// failed is every frame missing or wrong.
func (p *phaseStats) failed() int64 {
	missing := p.sentFwd.Load() - p.okFwd.Load() - p.badFwd.Load()
	return missing + p.badFwd.Load() + p.badDrop.Load() + p.badUnknown.Load()
}

func (p *phaseStats) mismatches() int64 {
	return p.badFwd.Load() + p.badDrop.Load() + p.badUnknown.Load()
}

// settled reports whether every expected frame has arrived or been judged.
func (p *phaseStats) settled() bool {
	return p.okFwd.Load()+p.badFwd.Load() >= p.sentFwd.Load()
}

// maxPhases bounds the traffic phases of one engine: a warm-up, then a
// closed and an open loop per round.
const maxPhases = 2*maxRounds + 2

type engine struct {
	s     *stack
	def   *workloadDef
	tmpls []tmpl
	// byPort[port] is the port's template cycle, shuffled by the seed.
	byPort map[int][]int32
	base   time.Time
	recs   []record
	seq    atomic.Uint64

	phase  atomic.Int32
	phases [maxPhases]phaseStats

	// Closed loop: in-flight expected frames per ingress port, and the
	// generator that owns the port, both indexed by port number (every
	// workload's ports are below 64); notify[g] wakes generator g.
	inflight [64]atomic.Int32
	owner    [64]int
	notify   []chan struct{}

	// Open loop: receivers record due→receipt latencies of frames due at
	// or after sampleFrom, each into its own slot.
	sampleFrom atomic.Int64
	lat        []latSlot

	gens    int
	udpGens []*net.UDPConn
	// tr, when set, times the benchmark's own per-frame work.
	tr *tracer

	rxWg sync.WaitGroup
}

// latSlot is one receiver's latency samples: due time and latency (ns)
// pairs.
type latSlot struct {
	mu  sync.Mutex
	lat []latSample
}

type latSample struct{ due, lat int64 }

func newEngine(s *stack, def *workloadDef, tmpls []tmpl, seed int64, gens int, udpGens []*net.UDPConn) *engine {
	e := &engine{s: s, def: def, tmpls: tmpls, byPort: map[int][]int32{}, base: time.Now(),
		recs: make([]record, recRing), gens: gens, udpGens: udpGens}
	e.sampleFrom.Store(math.MaxInt64)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i, t := range tmpls {
		e.byPort[t.port] = append(e.byPort[t.port], int32(i))
	}
	for _, p := range def.ports {
		c := e.byPort[p]
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
	}
	e.notify = make([]chan struct{}, gens)
	for g := range e.notify {
		e.notify[g] = make(chan struct{}, 1)
	}
	for i, p := range def.ports {
		e.owner[p] = i % gens
	}
	return e
}

func (e *engine) now() int64 { return int64(time.Since(e.base)) }

// startReceivers launches one receiver per in-process link, or per
// generator UDP socket.
func (e *engine) startReceivers() {
	if e.def.udp {
		e.lat = make([]latSlot, len(e.udpGens))
		for i, c := range e.udpGens {
			e.rxWg.Add(1)
			go e.recvUDP(&e.lat[i], c)
		}
		return
	}
	e.lat = make([]latSlot, len(e.def.ports))
	for i, port := range e.def.ports {
		e.rxWg.Add(1)
		go e.recvChan(&e.lat[i], port, e.s.peers[port])
	}
}

// stopReceivers waits for receivers to exit; their transports must already
// be closed.
func (e *engine) stopReceivers() { e.rxWg.Wait() }

func (e *engine) recvChan(ls *latSlot, port int, peer *pktio.ChanTransport) {
	defer e.rxWg.Done()
	var f pktio.Frame
	for {
		if err := peer.Recv(&f); err != nil {
			return
		}
		e.check(ls, port, f.Data)
	}
}

func (e *engine) recvUDP(ls *latSlot, c *net.UDPConn) {
	defer e.rxWg.Done()
	buf := make([]byte, 4096)
	for {
		n, addr, err := c.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		port, ok := e.s.udpPorts[addr.Port]
		if !ok {
			port = -1
		}
		e.check(ls, port, buf[:n])
	}
}

// check judges one emitted frame against the oracle.
func (e *engine) check(ls *latSlot, port int, data []byte) {
	at := e.now()
	if e.tr != nil {
		defer func() { e.tr.genNs.Add(e.now() - at) }()
	}
	if len(data) < seqLen {
		e.phases[e.phase.Load()].badUnknown.Add(1)
		return
	}
	seq := getSeq(data)
	r := &e.recs[seq&(recRing-1)]
	if seq == 0 || r.seq.Load() != seq {
		e.phases[e.phase.Load()].badUnknown.Add(1)
		return
	}
	ti, ph, due := r.tmpl.Load(), r.phase.Load(), r.due.Load()
	if !r.got.CompareAndSwap(0, 1) || r.seq.Load() != seq {
		e.phases[ph].badUnknown.Add(1)
		return
	}
	t := &e.tmpls[ti]
	st := &e.phases[ph]
	if t.outPort < 0 {
		st.badDrop.Add(1)
		return
	}
	if port != t.outPort || len(data) != len(t.out) || !bytes.Equal(data[:len(data)-seqLen], t.out[:len(t.out)-seqLen]) {
		st.badFwd.Add(1)
	} else {
		st.okFwd.Add(1)
		if due >= e.sampleFrom.Load() {
			ls.mu.Lock()
			ls.lat = append(ls.lat, latSample{due, at - due})
			ls.mu.Unlock()
		}
	}
	if st.windowed.Load() {
		e.inflight[t.port].Add(-1)
		select {
		case e.notify[e.owner[t.port]] <- struct{}{}:
		default:
		}
	}
}

// send stamps and sends one copy of template ti, due at the given time.
func (e *engine) send(ti int32, due int64, buf []byte) error {
	if e.tr != nil {
		t0 := e.now()
		defer func() { e.tr.genNs.Add(e.now() - t0) }()
	}
	t := &e.tmpls[ti]
	seq := e.seq.Add(1)
	r := &e.recs[seq&(recRing-1)]
	ph := e.phase.Load()
	r.seq.Store(0)
	r.tmpl.Store(ti)
	r.phase.Store(ph)
	r.due.Store(due)
	r.got.Store(0)
	r.seq.Store(seq)
	st := &e.phases[ph]
	if t.outPort < 0 {
		st.sentDrop.Add(1)
	} else {
		st.sentFwd.Add(1)
	}
	if e.def.udp {
		copy(buf, t.in)
		putSeq(buf[:len(t.in)], seq)
		c := e.udpGens[e.owner[t.port]%len(e.udpGens)]
		_, err := c.WriteToUDP(buf[:len(t.in)], e.s.udpAddr[t.port])
		return err
	}
	// In-process links hand the buffer to the switch, so each frame gets
	// its own.
	b := make([]byte, len(t.in))
	copy(b, t.in)
	putSeq(b, seq)
	return e.s.peers[t.port].Send(pktio.Frame{Data: b})
}

// newPhase starts counting into a fresh phase.
func (e *engine) newPhase() *phaseStats {
	n := e.phase.Add(1)
	if int(n) >= maxPhases {
		panic("hp4perf: more traffic phases than maxPhases")
	}
	return &e.phases[n]
}

// drain waits until every expected frame of the phase has arrived or the
// deadline passes.
func (e *engine) drain(st *phaseStats, max time.Duration) {
	deadline := time.Now().Add(max)
	for !st.settled() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// minRateWindow is the shortest window the closed loop's rate is taken over.
const minRateWindow = 100 * time.Millisecond

// closedLoop keeps window expected frames in flight on every ingress port
// for d, and returns the delivered frames per second after warm-up, in
// windows of at least minRateWindow.
func (e *engine) closedLoop(st *phaseStats, d, warm time.Duration) []float64 {
	st.windowed.Store(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var sendErrs atomic.Int64
	for g := 0; g < e.gens; g++ {
		var mine []int
		for _, p := range e.def.ports {
			if e.owner[p] == g {
				mine = append(mine, p)
			}
		}
		wg.Add(1)
		go func(g int, mine []int) {
			defer wg.Done()
			buf := make([]byte, 2048)
			next := map[int]int{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				progressed := false
				for _, p := range mine {
					cyc := e.byPort[p]
					for e.inflight[p].Load() < int32(e.def.closedWindow) {
						ti := cyc[next[p]%len(cyc)]
						next[p]++
						if e.tmpls[ti].outPort >= 0 {
							e.inflight[p].Add(1)
						}
						if err := e.send(ti, e.now(), buf); err != nil {
							sendErrs.Add(1)
							if e.tmpls[ti].outPort >= 0 {
								e.inflight[p].Add(-1)
							}
						}
						progressed = true
					}
				}
				if !progressed {
					select {
					case <-e.notify[g]:
					case <-stop:
						return
					case <-time.After(5 * time.Millisecond):
					}
				}
			}
		}(g, mine)
	}
	time.Sleep(warm)
	var rates []float64
	t0, n0 := time.Now(), st.okFwd.Load()
	start := t0
	// Windows of at least minRateWindow, so even the interpreted mesh
	// delivers enough frames in each for its rate to mean something.
	n := min(e.def.windows, max(1, int((d-warm)/minRateWindow)))
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add((d - warm) * time.Duration(i) / time.Duration(n))))
		t1, n1 := time.Now(), st.okFwd.Load()
		rates = append(rates, float64(n1-n0)/t1.Sub(t0).Seconds())
		t0, n0 = t1, n1
	}
	close(stop)
	wg.Wait()
	return rates
}

// openLoop offers pps frames per second, spread evenly over the ports, for
// d; frames due after warm are sampled for latency. It returns the
// generator's lateness samples (ns).
func (e *engine) openLoop(d, warm time.Duration, pps float64, gens int) ([]int64, error) {
	var pacerErr atomic.Value
	for i := range e.lat {
		e.lat[i].mu.Lock()
		e.lat[i].lat = e.lat[i].lat[:0]
		e.lat[i].mu.Unlock()
	}
	start := e.now() + int64(time.Millisecond)
	end := start + int64(d)
	warmAt := start + int64(warm)
	e.sampleFrom.Store(warmAt)
	var wg sync.WaitGroup
	lates := make([][]int64, gens)
	// Generator g owns every gens-th slot of one global schedule, so the
	// merged stream is evenly spaced and cycles over all ports.
	period := 1e9 / pps
	nports := len(e.def.ports)
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pc, err := newPacer()
			if err != nil {
				pacerErr.Store(err)
				return
			}
			defer pc.close()
			buf := make([]byte, 2048)
			next := make([]int, nports)
			var late []int64
			for k := g; ; k += gens {
				due := start + int64(float64(k)*period)
				if due >= end {
					break
				}
				now := e.now()
				if wait := due - now; wait > 0 {
					// Sleep to the due time; the OS timer's overshoot shows
					// up as lateness, never as a spinning core.
					if err := pc.sleep(wait); err != nil {
						pacerErr.Store(err)
						return
					}
					now = e.now()
				}
				pi := k % nports
				p := e.def.ports[pi]
				cyc := e.byPort[p]
				ti := cyc[next[pi]%len(cyc)]
				next[pi]++
				if due >= warmAt {
					late = append(late, now-due)
				}
				_ = e.send(ti, due, buf)
			}
			lates[g] = late
		}(g)
	}
	wg.Wait()
	if err, _ := pacerErr.Load().(error); err != nil {
		return nil, err
	}
	var all []int64
	for _, l := range lates {
		all = append(all, l...)
	}
	return all, nil
}

// latencies stops sampling and returns the sampled latencies (ns) in
// due-time order.
func (e *engine) latencies() []int64 {
	e.sampleFrom.Store(math.MaxInt64)
	var all []latSample
	for i := range e.lat {
		e.lat[i].mu.Lock()
		all = append(all, e.lat[i].lat...)
		e.lat[i].mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	out := make([]int64, len(all))
	for i, s := range all {
		out[i] = s.lat
	}
	return out
}

// pacer sleeps a generator goroutine until its next due time. A
// one-shot timerfd read through the runtime's poller parks the goroutine
// without holding a processor and wakes it within microseconds of the due
// time; time.Sleep cannot pace below a millisecond, because the scheduler's
// netpoller rounds short waits up to one.
type pacer struct{ f *os.File }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{f: os.NewFile(fd, "pacer")}, nil
}

// sleep blocks for ns nanoseconds (ns > 0).
func (p *pacer) sleep(ns int64) error {
	// struct itimerspec {it_interval, it_value}: one-shot, relative.
	spec := [4]int64{0, 0, ns / 1e9, ns % 1e9}
	rc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var b [8]byte
	_, err = p.f.Read(b[:])
	return err
}

func (p *pacer) close() { _ = p.f.Close() }

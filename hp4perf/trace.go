package main

import (
	"sync"
	"sync/atomic"
	"time"

	"hyper4/internal/core/fuse"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

// tracer times each layer from outside, through the surfaces runtime.New
// accepts: the Processor it drives, the transports it sends through, and
// the shard key it routes by. A nil *tracer wraps nothing, so untraced runs
// measure the unwrapped stack.
type tracer struct {
	// Transport: wrapped Send calls.
	sends, sendNs, txErrs atomic.Int64
	// Runtime: frames per worker as the shard key routes them.
	workers int
	shard   [64]atomic.Int64
	// Sim: wrapped ProcessSeq calls.
	calls, frames, busyNs atomic.Int64
	// Generator: benchmark-side time per frame sent and checked.
	genNs atomic.Int64

	hits hitTracker
}

func (t *tracer) wrapTransport(tr pktio.Transport) pktio.Transport {
	if t == nil {
		return tr
	}
	w := &tracedTransport{Transport: tr, t: t}
	if rc, ok := tr.(pktio.RecvCloser); ok {
		return &tracedRecvCloser{tracedTransport: w, rc: rc}
	}
	return w
}

type tracedTransport struct {
	pktio.Transport
	t *tracer
}

func (w *tracedTransport) Send(f pktio.Frame) error {
	t0 := time.Now()
	err := w.Transport.Send(f)
	w.t.sendNs.Add(int64(time.Since(t0)))
	w.t.sends.Add(1)
	if err != nil {
		w.t.txErrs.Add(1)
	}
	return err
}

// tracedRecvCloser keeps the inner transport's two-phase close visible to
// the runtime's drain.
type tracedRecvCloser struct {
	*tracedTransport
	rc pktio.RecvCloser
}

func (w *tracedRecvCloser) CloseRecv() error { return w.rc.CloseRecv() }

func (t *tracer) wrapShardKey(key func(int) int, workers int) func(int) int {
	t.workers = workers
	return func(port int) int {
		k := key(port)
		w := k
		if w < 0 {
			w = -w
		}
		t.shard[(w%workers)%len(t.shard)].Add(1)
		return k
	}
}

// wrapProcessor times the switch's batch entry point the runtime's workers
// call.
func (t *tracer) wrapProcessor(sw *sim.Switch) pktio.Processor {
	return &tracedProc{sw: sw, t: t}
}

type tracedProc struct {
	sw *sim.Switch
	t  *tracer
}

func (p *tracedProc) Process(data []byte, port int) ([]sim.Output, *sim.Trace, error) {
	return p.sw.Process(data, port)
}

func (p *tracedProc) ProcessSeq(in []sim.Input, res []sim.Result) error {
	t0 := time.Now()
	err := p.sw.ProcessSeq(in, res)
	p.t.busyNs.Add(int64(time.Since(t0)))
	p.t.calls.Add(1)
	p.t.frames.Add(int64(len(in)))
	return err
}

// counters is a snapshot of the tracer's counters, for per-phase deltas.
type counters struct {
	sends, sendNs, txErrs, calls, frames, busyNs, genNs int64
	shard                                               []int64
}

func (t *tracer) snap() counters {
	c := counters{sends: t.sends.Load(), sendNs: t.sendNs.Load(), txErrs: t.txErrs.Load(),
		calls: t.calls.Load(), frames: t.frames.Load(), busyNs: t.busyNs.Load(), genNs: t.genNs.Load()}
	for i := 0; i < t.workers; i++ {
		c.shard = append(c.shard, t.shard[i].Load())
	}
	return c
}

func (c counters) sub(o counters) counters { return c.plus(o, -1) }

func (c counters) add(o counters) counters { return c.plus(o, 1) }

// plus returns c + sign*o.
func (c counters) plus(o counters, sign int64) counters {
	r := counters{sends: c.sends + sign*o.sends, sendNs: c.sendNs + sign*o.sendNs, txErrs: c.txErrs + sign*o.txErrs,
		calls: c.calls + sign*o.calls, frames: c.frames + sign*o.frames, busyNs: c.busyNs + sign*o.busyNs, genNs: c.genNs + sign*o.genNs}
	r.shard = make([]int64, max(len(c.shard), len(o.shard)))
	for i := range r.shard {
		if i < len(c.shard) {
			r.shard[i] = c.shard[i]
		}
		if i < len(o.shard) {
			r.shard[i] += sign * o.shard[i]
		}
	}
	return r
}

// hitTracker sums fuse.Engine.Hits across the engine swaps a run causes.
// The engine live when counting starts contributes its hits since then;
// every engine first seen after a write was built by it, so all of its hits
// count.
type hitTracker struct {
	mu   sync.Mutex
	base map[*fuse.Engine]uint64
}

func (h *hitTracker) note(sw *sim.Switch, fresh bool) {
	eng, ok := sw.FastPath().(*fuse.Engine)
	if !ok || eng == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.base == nil {
		h.base = map[*fuse.Engine]uint64{}
	}
	if _, seen := h.base[eng]; !seen {
		b := eng.Hits()
		if fresh {
			b = 0
		}
		h.base[eng] = b
	}
}

func (h *hitTracker) total() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for eng, b := range h.base {
		n += eng.Hits() - b
	}
	return n
}

package runtime

import "sync/atomic"

// ring is a bounded single-producer/single-consumer frame queue. The
// producer role belongs to exactly one goroutine (a port's RX loop for
// ingress rings, one worker for egress rings) and the consumer role to
// exactly one other (a worker, or a port's TX loop); under that discipline
// the head/tail atomics are the only synchronization needed, so neither side
// ever takes a lock or blocks the other.
//
// Capacity is a power of two so index masking replaces modulo. A full ring
// rejects the push — the caller decides whether that is a drop (wire
// transports, counted) or a retry (lossless in-process links).
type ring struct {
	buf  []Frame
	mask uint64
	// head is the consumer cursor, tail the producer cursor; both increase
	// monotonically and are compared by difference, so wraparound is free.
	head atomic.Uint64
	tail atomic.Uint64
	// settled trails head: the consumer advances it once the frames it
	// popped are fully handled, so a drain can wait for popped-but-unhandled
	// frames too (idle), not only for an empty ring.
	settled atomic.Uint64
}

// newRing builds a ring with capacity rounded up to a power of two.
func newRing(capacity int) *ring {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &ring{buf: make([]Frame, n), mask: uint64(n - 1)}
}

// push appends one frame; false means the ring is full. Producer-side only.
func (r *ring) push(f Frame) bool {
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = f
	// The release store publishes the slot write above to the consumer's
	// acquire load of tail.
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest frame into f; false means the ring is empty.
// Consumer-side only.
func (r *ring) pop(f *Frame) bool {
	h := r.head.Load()
	if h == r.tail.Load() {
		return false
	}
	*f = r.buf[h&r.mask]
	// Clear the slot so the ring never pins a drained frame's buffer, then
	// publish the free slot to the producer.
	r.buf[h&r.mask] = Frame{}
	r.head.Store(h + 1)
	return true
}

// depth is the current occupancy (racy snapshot, metrics only).
func (r *ring) depth() int {
	d := r.tail.Load() - r.head.Load()
	if d > uint64(len(r.buf)) {
		return len(r.buf)
	}
	return int(d)
}

// empty reports whether the ring held nothing at the moment of the call.
func (r *ring) empty() bool { return r.head.Load() == r.tail.Load() }

// settle marks every frame popped so far as handled. Consumer-side only.
func (r *ring) settle() { r.settled.Store(r.head.Load()) }

// idle reports whether every frame ever pushed has been popped and settled.
func (r *ring) idle() bool { return r.settled.Load() == r.tail.Load() }

// Package runtime is the packet I/O runtime: it owns ingestion end-to-end,
// reading frames from pluggable transports on dedicated RX goroutines,
// sharding them onto per-worker bounded SPSC rings, draining the rings
// through the switch on worker loops, and writing results back out egress
// transports on per-port TX goroutines (the ndn-dpdk input/fwd/output
// architecture, DESIGN.md §14). The netsim substrate and hp4switch's wire
// transports are both consumers of the same Runtime and Transport API.
package runtime

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Frame is one packet in flight plus the switch port it belongs to: the
// ingress port after Recv (stamped by the runtime — a transport serves
// exactly one port), the egress port on Send.
type Frame struct {
	Data []byte
	Port int
}

// Transport moves frames between one switch port and the outside world —
// a UDP socket, an in-process channel link, or anything else that can carry
// raw frames. Implementations must be safe for one concurrent Recv'er and
// one concurrent Send'er (the runtime's RX and TX loops for the port).
type Transport interface {
	// Recv blocks until a frame arrives, filling f with a buffer the caller
	// owns from then on, or returns ErrClosed once the transport is closed.
	Recv(f *Frame) error
	// Send writes one frame out. In-process transports may block on a full
	// link; wire transports must not.
	Send(f Frame) error
	// Close releases the transport; pending and future Recv/Send return
	// ErrClosed.
	Close() error
}

// RecvCloser is an optional Transport extension: shut the receive side down
// (unblocking a pending Recv) while Send keeps working, so a draining
// runtime can stop ingestion first and still flush queued egress frames
// before the full Close.
type RecvCloser interface {
	CloseRecv() error
}

// Sentinel errors, mapped onto structured control-plane codes by
// internal/core/ctl.
var (
	// ErrClosed reports an operation on a closed transport or runtime.
	ErrClosed = errors.New("runtime: closed")
	// ErrPortBusy reports an attach to a port that already has a transport.
	ErrPortBusy = errors.New("runtime: port already attached")
	// ErrNoPort reports an operation on a port with no transport attached.
	ErrNoPort = errors.New("runtime: port not attached")
	// ErrBadSpec reports an unparseable transport specification.
	ErrBadSpec = errors.New("runtime: bad transport spec")
	// ErrNoPeer reports a Send on a transport that has not yet learned a
	// destination.
	ErrNoPeer = errors.New("runtime: no peer address")
	// ErrFrameTooBig reports an ingress frame over the transport's size
	// limit; the runtime counts it as an rx drop and keeps receiving.
	ErrFrameTooBig = errors.New("runtime: frame exceeds size limit")
)

// NewTransport builds a transport from a one-token textual spec — the form
// the control plane's "port attach <port> <spec>" op carries:
//
//	udp:<listen-host:port>              reply to the last sender
//	udp:<listen-host:port>/<peer:port>  fixed peer
//
// In-process channel transports have no spec; they are built with
// NewChanPair and attached programmatically.
func NewTransport(spec string) (Transport, error) {
	scheme, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("%w: %q (want scheme:address)", ErrBadSpec, spec)
	}
	switch scheme {
	case "udp":
		return newUDPTransport(rest)
	}
	return nil, fmt.Errorf("%w: unknown scheme %q in %q", ErrBadSpec, scheme, spec)
}

// ChanTransport is the in-process transport: one endpoint of a buffered
// bidirectional channel link. It is what internal/netsim runs switch-switch
// and switch-host links over, and what tests use to drive a Runtime without
// sockets.
//
// The two endpoints of a pair share one close signal: closing either side
// unblocks every pending Recv and Send on both, so a topology can be torn
// down from any end without stranding a peer (netsim closes every link
// before stopping its switch runtimes).
type ChanTransport struct {
	rx <-chan []byte
	tx chan<- []byte

	closed     chan struct{} // shared by the pair
	closeOnce  *sync.Once    // shared by the pair
	recvClosed chan struct{} // this endpoint only
	recvOnce   sync.Once
}

// NewChanPair builds the two cross-connected endpoints of an in-process
// link with the given per-direction buffer.
func NewChanPair(buf int) (*ChanTransport, *ChanTransport) {
	if buf < 1 {
		buf = 1
	}
	ab := make(chan []byte, buf)
	ba := make(chan []byte, buf)
	closed := make(chan struct{})
	once := &sync.Once{}
	a := &ChanTransport{rx: ba, tx: ab, closed: closed, closeOnce: once, recvClosed: make(chan struct{})}
	b := &ChanTransport{rx: ab, tx: ba, closed: closed, closeOnce: once, recvClosed: make(chan struct{})}
	return a, b
}

// Recv blocks for the next frame from the peer. Frames already buffered in
// the link when the receive side closes are still delivered — CloseRecv
// means "stop accepting new traffic", and everything the peer's Send already
// completed counts as accepted. Only then does Recv report ErrClosed.
func (c *ChanTransport) Recv(f *Frame) error {
	select {
	case data := <-c.rx:
		f.Data = data
		return nil
	default:
	}
	select {
	case data := <-c.rx:
		f.Data = data
		return nil
	case <-c.recvClosed:
	case <-c.closed:
	}
	// select picks at random among ready cases, so a close may win over a
	// frame that was already buffered; that frame still counts as accepted.
	select {
	case data := <-c.rx:
		f.Data = data
		return nil
	default:
		return ErrClosed
	}
}

// Send delivers one frame to the peer, blocking while the link buffer is
// full (in-process links are lossless; bounded loss lives in the rings).
func (c *ChanTransport) Send(f Frame) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	select {
	case c.tx <- f.Data:
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

// Buffered reports how many frames sit in the link's channel buffers, both
// directions. Meaningful once the link and both consumers have stopped —
// netsim's teardown accounting, counting frames torn down in flight.
func (c *ChanTransport) Buffered() int {
	return len(c.rx) + len(c.tx)
}

// CloseRecv stops this endpoint's receive side only.
func (c *ChanTransport) CloseRecv() error {
	c.recvOnce.Do(func() { close(c.recvClosed) })
	return nil
}

// Close tears the whole link down, both endpoints, both directions.
func (c *ChanTransport) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

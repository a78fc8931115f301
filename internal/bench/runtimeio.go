package bench

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	pktio "hyper4/internal/runtime"
)

// RuntimeThroughput measures end-to-end packets/sec through the full packet
// I/O runtime — RX loop, per-worker rings, worker sweeps through the switch,
// TX loop — rather than calling Process directly. Frames enter and leave over
// in-process channel transports so the number isolates the runtime's own
// overhead (sharding, ring hops, wakeups) from socket syscalls. Traffic runs
// both ways: the workload's h1→h2 frames enter on port 1 and their mirrored
// h2→h1 twins on port 2, each from its own sender, so the default per-port
// shard key spreads them over two workers. workers sets the runtime's worker
// fan-out.
func RuntimeThroughput(fn string, mode Mode, workers, minPackets int) (ThroughputResult, error) {
	sw, err := FunctionSwitch(fn, mode)
	if err != nil {
		return ThroughputResult{}, err
	}
	src := WorkloadPackets(fn)
	if len(src) == 0 {
		return ThroughputResult{}, fmt.Errorf("bench: no workload for %q", fn)
	}
	if minPackets < len(src) {
		minPackets = len(src)
	}

	rt := pktio.New(sw, pktio.Config{Workers: workers, RingSize: 1024, Lossless: true})
	rt.Start()
	defer rt.Close()
	near1, far1 := pktio.NewChanPair(1024)
	near2, far2 := pktio.NewChanPair(1024)
	if err := rt.Attach(1, near1); err != nil {
		return ThroughputResult{}, err
	}
	if err := rt.Attach(2, near2); err != nil {
		return ThroughputResult{}, err
	}
	// Egress sinks; without consumers the lossless TX path would block.
	go func() {
		var f pktio.Frame
		for far1.Recv(&f) == nil {
		}
	}()
	go func() {
		var f pktio.Frame
		for far2.Recv(&f) == nil {
		}
	}()

	back := make([][]byte, len(src))
	for i, f := range src {
		back[i] = mirror(f)
	}
	// send pushes frames off..off+n-1: even ones h1→h2 into port 1, odd
	// ones h2→h1 into port 2.
	send := func(n, off int) error {
		errs := make(chan error, 2)
		for dir, far := range []*pktio.ChanTransport{far1, far2} {
			frames := [][][]byte{src, back}[dir]
			go func() {
				for i := dir; i < n; i += 2 {
					if err := far.Send(pktio.Frame{Data: frames[(off+i)%len(frames)]}); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		return errors.Join(<-errs, <-errs)
	}
	waitProcessed := func(n uint64) error {
		deadline := time.Now().Add(30 * time.Second)
		for rt.Metrics().Processed < n {
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: io runtime stalled at %d of %d packets",
					rt.Metrics().Processed, n)
			}
			time.Sleep(20 * time.Microsecond)
		}
		return nil
	}

	warm := min(len(src), 8)
	if err := send(warm, 0); err != nil {
		return ThroughputResult{}, err
	}
	if err := waitProcessed(uint64(warm)); err != nil {
		return ThroughputResult{}, err
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lat0 := sw.Metrics().Latency
	start := time.Now()
	if err := send(minPackets, warm); err != nil {
		return ThroughputResult{}, err
	}
	if err := waitProcessed(uint64(warm + minPackets)); err != nil {
		return ThroughputResult{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	lat := sw.Metrics().Latency.Sub(lat0)

	n := float64(minPackets)
	return ThroughputResult{
		Function:    fn,
		Mode:        fmt.Sprintf("%s+io-w%d", mode, workers),
		Workers:     workers,
		Packets:     minPackets,
		SerialNsOp:  float64(elapsed.Nanoseconds()) / n,
		SerialPPS:   n / elapsed.Seconds(),
		SerialAlloc: float64(m1.Mallocs-m0.Mallocs) / n,
		P50Ns:       lat.Quantile(0.50).Nanoseconds(),
		P90Ns:       lat.Quantile(0.90).Nanoseconds(),
		P99Ns:       lat.Quantile(0.99).Nanoseconds(),
		P999Ns:      lat.Quantile(0.999).Nanoseconds(),
	}, nil
}

// mirror returns the reverse-direction twin of a frame: Ethernet source and
// destination swapped and, for IPv4, the addresses swapped too. The IPv4
// and L4 checksums are sums over both addresses, so they stay valid.
func mirror(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	swap := func(a, b, n int) {
		for i := 0; i < n; i++ {
			out[a+i], out[b+i] = out[b+i], out[a+i]
		}
	}
	swap(0, 6, 6)
	if len(out) >= 34 && out[12] == 0x08 && out[13] == 0x00 {
		swap(26, 30, 4)
	}
	return out
}

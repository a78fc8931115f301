package bench

import (
	"fmt"
	"runtime"
	"time"

	"hyper4/internal/functions"
	"hyper4/internal/sim"
)

// ThroughputResult is one throughput measurement. Throughput rows time a
// serial Process loop; RuntimeThroughput rows time the packet I/O runtime
// end to end and carry its worker count.
type ThroughputResult struct {
	Function    string  `json:"function"`
	Mode        string  `json:"mode"`
	Workers     int     `json:"workers"` // GOMAXPROCS, or runtime workers
	Packets     int     `json:"packets"`
	SerialNsOp  float64 `json:"serial_ns_per_pkt"`
	SerialPPS   float64 `json:"serial_pkts_per_sec"`
	SerialAlloc float64 `json:"serial_allocs_per_pkt"`
	P50Ns       int64   `json:"serial_p50_ns"`
	P90Ns       int64   `json:"serial_p90_ns"`
	P99Ns       int64   `json:"serial_p99_ns"`
	P999Ns      int64   `json:"serial_p999_ns"`
}

// ThroughputFunctions are the workloads the throughput experiment sweeps:
// two single functions and the Example 1 C composed chain, whose emulated
// packets cross two virtual links (and whose fused plans chain across
// them).
func ThroughputFunctions() []string {
	return []string{functions.L2Switch, functions.Firewall, functions.Composed}
}

// Throughput measures serial Process throughput for one function and mode,
// driving at least minPackets packets (the function's workload packets,
// repeated).
func Throughput(fn string, mode Mode, minPackets int) (ThroughputResult, error) {
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
	inputs := make([]sim.Input, minPackets)
	for i := range inputs {
		inputs[i] = sim.Input{Data: src[i%len(src)], Port: 1}
	}
	// Warm the state pool and any lazy paths before timing.
	warm := inputs[:min(len(inputs), 8)]
	if err := sw.ProcessSeq(warm, make([]sim.Result, len(warm))); err != nil {
		return ThroughputResult{}, err
	}

	runtime.GC() // start the timed phases from a collected heap
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lat0 := sw.Metrics().Latency
	start := time.Now()
	for _, in := range inputs {
		if _, _, err := sw.Process(in.Data, in.Port); err != nil {
			return ThroughputResult{}, err
		}
	}
	serial := time.Since(start)
	runtime.ReadMemStats(&m1)
	serialAllocs := float64(m1.Mallocs-m0.Mallocs) / float64(len(inputs))
	// Percentiles come from the switch's own latency histogram, restricted
	// to the serial loop via a snapshot delta.
	lat := sw.Metrics().Latency.Sub(lat0)

	n := float64(len(inputs))
	return ThroughputResult{
		Function:    fn,
		Mode:        mode.String(),
		Workers:     runtime.GOMAXPROCS(0),
		Packets:     len(inputs),
		SerialNsOp:  float64(serial.Nanoseconds()) / n,
		SerialPPS:   n / serial.Seconds(),
		SerialAlloc: serialAllocs,
		P50Ns:       lat.Quantile(0.50).Nanoseconds(),
		P90Ns:       lat.Quantile(0.90).Nanoseconds(),
		P99Ns:       lat.Quantile(0.99).Nanoseconds(),
		P999Ns:      lat.Quantile(0.999).Nanoseconds(),
	}, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"hyper4/internal/bench"
	"hyper4/internal/functions"
)

// printRow prints one throughput measurement line.
func printRow(res bench.ThroughputResult) {
	fmt.Printf("%-12s %-15s %14.0f %12.1f %9v %9v %9v %9v\n",
		res.Function, res.Mode, res.SerialPPS, res.SerialAlloc,
		time.Duration(res.P50Ns), time.Duration(res.P90Ns),
		time.Duration(res.P99Ns), time.Duration(res.P999Ns))
}

// previousAllocs loads the allocs-per-packet column of an earlier run's JSON
// file, keyed by function/mode, so the new run can report deltas. A missing
// or unreadable file simply yields no baseline.
func previousAllocs(jsonPath string) map[string]float64 {
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		return nil
	}
	var prev []bench.ThroughputResult
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil
	}
	out := make(map[string]float64, len(prev))
	for _, r := range prev {
		out[r.Function+"/"+r.Mode] = r.SerialAlloc
	}
	return out
}

// throughput runs the packet throughput experiment — serial Process per
// function and mode, then the fused l2_switch end to end through the packet
// I/O runtime — checks the cross-row budgets, and optionally writes the
// measurements to a JSON file.
func throughput(pkts int, jsonPath string) error {
	prevAllocs := previousAllocs(jsonPath)

	fmt.Printf("Throughput (%d packets, GOMAXPROCS=%d)\n", pkts, runtime.GOMAXPROCS(0))
	fmt.Printf("%-12s %-15s %14s %12s %9s %9s %9s %9s\n",
		"program", "mode", "pkt/s", "allocs/pkt", "p50", "p90", "p99", "p99.9")
	var results []bench.ThroughputResult
	byKey := map[string]bench.ThroughputResult{}
	record := func(res bench.ThroughputResult) {
		results = append(results, res)
		byKey[res.Function+"/"+res.Mode] = res
		printRow(res)
		if prev, ok := prevAllocs[res.Function+"/"+res.Mode]; ok {
			fmt.Fprintf(os.Stderr, "allocs/pkt %s/%s: %.1f -> %.1f (%+.1f)\n",
				res.Function, res.Mode, prev, res.SerialAlloc, res.SerialAlloc-prev)
		}
	}
	for _, fn := range bench.ThroughputFunctions() {
		for _, mode := range []bench.Mode{bench.Native, bench.HyPer4, bench.HyPer4Fused} {
			res, err := bench.Throughput(fn, mode, pkts)
			if err != nil {
				return err
			}
			record(res)
		}
	}
	// The fused fast path is the emulation-tax killer (DESIGN.md §13): its
	// serial cost must land within 5x native for single functions and
	// within 8x for the composed chain (the native baseline there is one
	// pipeline doing the work of three), and its steady state must not
	// allocate per match-action stage like the interpreter does.
	for _, fn := range bench.ThroughputFunctions() {
		fused, native := byKey[fn+"/hp4-fused"], byKey[fn+"/native"]
		budget := 5.0
		if fn == functions.Composed {
			budget = 8.0
		}
		ratio := fused.SerialNsOp / native.SerialNsOp
		if ratio > budget {
			return fmt.Errorf("fused %s serial cost %.0f ns/pkt vs %.0f ns/pkt native (ratio %.2f, want <= %.0fx)",
				fn, fused.SerialNsOp, native.SerialNsOp, ratio, budget)
		}
		fmt.Printf("fused %s at %.2fx native serial cost (budget: %.0fx)\n", fn, ratio, budget)
		if (fn == functions.L2Switch || fn == functions.Composed) && fused.SerialAlloc >= 50 {
			return fmt.Errorf("fused %s allocates %.1f/pkt, want < 50", fn, fused.SerialAlloc)
		}
	}
	// Serving-traffic rows, the parallel throughput numbers: the fused
	// l2_switch measured end-to-end through the packet I/O runtime (RX
	// loops, per-worker rings, worker sweeps, TX loops) over in-process
	// transports, with traffic entering on two ports, at one worker and at
	// full fan-out. On a single-CPU runner both land on one core, so the
	// pair is a scaling probe for real hardware rather than an assertion.
	nWorkers := max(runtime.GOMAXPROCS(0), 2)
	w1, err := bench.RuntimeThroughput(functions.L2Switch, bench.HyPer4Fused, 1, pkts)
	if err != nil {
		return err
	}
	record(w1)
	wn, err := bench.RuntimeThroughput(functions.L2Switch, bench.HyPer4Fused, nWorkers, pkts)
	if err != nil {
		return err
	}
	record(wn)
	fmt.Printf("io runtime end-to-end: %.0f pkt/s at 1 worker, %.0f pkt/s at %d workers (%.2fx)\n",
		w1.SerialPPS, wn.SerialPPS, nWorkers, wn.SerialPPS/w1.SerialPPS)
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("note: single-CPU runner; worker scaling requires multiple cores")
	}
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", jsonPath)
	return nil
}

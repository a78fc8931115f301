package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"hyper4/internal/breaker"
	"hyper4/internal/core/dpmu"
	pktio "hyper4/internal/runtime"
	"hyper4/internal/sim"
)

// This file serves the switch's metrics registry in Prometheus text
// exposition format (version 0.0.4), hand-written — the repo takes no
// dependencies — plus the standard pprof handlers. Families:
//
//	hyper4_packets_{in,out,dropped}_total
//	hyper4_{resubmits,recirculates,clones,table_applies}_total
//	hyper4_table_{hits,misses,default_actions}_total{table="..."}
//	hyper4_table_entries{table="..."}
//	hyper4_action_invocations_total{action="..."}
//	hyper4_pipeline_passes_total{kind="normal"|"resubmit"|...}
//	hyper4_process_latency_seconds{le="..."} (histogram)
//	hyper4_packet_faults_total{kind="panic"|"pass_bound"|...}
//	hyper4_quarantine_drops_total
//	hyper4_vdev_passes_total / hyper4_vdev_bytes_total{vdev="..."}
//	hyper4_vdev_table_{hits,misses}_total{vdev="...",table="..."} (persona mode)
//	hyper4_vdev_health{vdev="..."} (0 healthy, 1 degraded, 2 probing, 3 quarantined)
//	hyper4_vdev_health_trips_total / hyper4_vdev_faults_total{vdev="..."} (persona mode)
//	hyper4_rx_frames_total / hyper4_tx_frames_total{port="..."} (I/O runtime)
//	hyper4_ring_depth{port="...",worker="...",dir="rx"|"tx"}
//	hyper4_ring_drops_total{port="...",dir="rx"|"tx"}
//	hyper4_tx_errors_total{port="..."}
//	hyper4_io_processed_total / hyper4_io_proc_errors_total / hyper4_unrouted_frames_total
//	hyper4_port_health{port="..."} (0 healthy, 1 degraded, 2 probing, 3 quarantined)
//	hyper4_port_health_trips_total / hyper4_port_reattach_total{port="..."}
//	hyper4_port_io_errors_total{port="...",kind="recv"|"send"|"stall"}

// newMetricsMux builds the HTTP handler for -metrics-addr. d is nil outside
// persona mode; iort is nil when the process runs without a packet I/O
// runtime (tests scraping writeMetrics directly).
func newMetricsMux(sw *sim.Switch, d *dpmu.DPMU, iort *pktio.Runtime) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writeMetrics(w, sw, d)
		if iort != nil {
			writeIOMetrics(w, iort.Metrics())
			// Scraping port health also advances the port breakers, exactly
			// like the vdev-health families above.
			writePortHealthMetrics(w, iort.PortHealth())
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func writeMetrics(w io.Writer, sw *sim.Switch, d *dpmu.DPMU) {
	snap := sw.Metrics()
	st := sw.Stats()

	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("hyper4_packets_in_total", "Packets submitted to the switch.", int64(st.PacketsIn))
	counter("hyper4_packets_out_total", "Packets emitted by the switch.", int64(st.PacketsOut))
	counter("hyper4_packets_dropped_total", "Packets that produced no output.", int64(st.PacketsDropped))
	counter("hyper4_resubmits_total", "Resubmit operations.", int64(st.Resubmits))
	counter("hyper4_recirculates_total", "Recirculate operations.", int64(st.Recirculates))
	counter("hyper4_clones_total", "Clone operations.", int64(st.Clones))
	counter("hyper4_table_applies_total", "Match-action stages executed.", int64(st.TableApplies))

	tables := make([]string, 0, len(snap.Tables))
	for name := range snap.Tables {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	perTable := func(name, help string, get func(sim.TableCounters) int64, typ string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, t := range tables {
			fmt.Fprintf(w, "%s{table=%q} %d\n", name, escapeLabel(t), get(snap.Tables[t]))
		}
	}
	perTable("hyper4_table_hits_total", "Lookups that matched an installed entry.",
		func(c sim.TableCounters) int64 { return c.Hits }, "counter")
	perTable("hyper4_table_misses_total", "Lookups that matched nothing.",
		func(c sim.TableCounters) int64 { return c.Misses }, "counter")
	perTable("hyper4_table_default_actions_total", "Misses on which a configured default action ran.",
		func(c sim.TableCounters) int64 { return c.Defaults }, "counter")
	perTable("hyper4_table_entries", "Currently installed entries.",
		func(c sim.TableCounters) int64 { return int64(c.Entries) }, "gauge")

	actions := make([]string, 0, len(snap.Actions))
	for name := range snap.Actions {
		actions = append(actions, name)
	}
	sort.Strings(actions)
	fmt.Fprintf(w, "# HELP hyper4_action_invocations_total Action executions by name.\n# TYPE hyper4_action_invocations_total counter\n")
	for _, a := range actions {
		fmt.Fprintf(w, "hyper4_action_invocations_total{action=%q} %d\n", escapeLabel(a), snap.Actions[a])
	}

	fmt.Fprintf(w, "# HELP hyper4_pipeline_passes_total Pipeline passes by bmv2 instance type.\n# TYPE hyper4_pipeline_passes_total counter\n")
	for _, kv := range []struct {
		kind string
		v    int64
	}{
		{"normal", snap.Passes.Normal},
		{"resubmit", snap.Passes.Resubmit},
		{"recirculate", snap.Passes.Recirculate},
		{"clone_i2e", snap.Passes.CloneI2E},
		{"clone_e2e", snap.Passes.CloneE2E},
	} {
		fmt.Fprintf(w, "hyper4_pipeline_passes_total{kind=%q} %d\n", kv.kind, kv.v)
	}

	fmt.Fprintf(w, "# HELP hyper4_process_latency_seconds Wall time of Process calls.\n# TYPE hyper4_process_latency_seconds histogram\n")
	var cum int64
	for i, c := range snap.Latency.Counts {
		cum += c
		if i < len(snap.Latency.Bounds) {
			fmt.Fprintf(w, "hyper4_process_latency_seconds_bucket{le=%q} %d\n",
				fmt.Sprintf("%g", snap.Latency.Bounds[i].Seconds()), cum)
		} else {
			fmt.Fprintf(w, "hyper4_process_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
		}
	}
	fmt.Fprintf(w, "hyper4_process_latency_seconds_sum %g\n", float64(snap.Latency.SumNs)/1e9)
	fmt.Fprintf(w, "hyper4_process_latency_seconds_count %d\n", snap.Latency.Count)

	fmt.Fprintf(w, "# HELP hyper4_packet_faults_total Contained packet faults by kind.\n# TYPE hyper4_packet_faults_total counter\n")
	byKind := snap.Faults.ByKind()
	for _, kind := range sim.FaultKinds() {
		fmt.Fprintf(w, "hyper4_packet_faults_total{kind=%q} %d\n", string(kind), byKind[kind])
	}
	counter("hyper4_quarantine_drops_total", "Passes dropped because their device is quarantined.", snap.Faults.QuarantineDrops)

	if d == nil {
		return
	}
	all := d.AllStats()
	fmt.Fprintf(w, "# HELP hyper4_vdev_passes_total Pipeline passes attributed to a virtual device.\n# TYPE hyper4_vdev_passes_total counter\n")
	for _, v := range all {
		fmt.Fprintf(w, "hyper4_vdev_passes_total{vdev=%q} %d\n", escapeLabel(v.VDev), v.Packets)
	}
	fmt.Fprintf(w, "# HELP hyper4_vdev_bytes_total Bytes attributed to a virtual device.\n# TYPE hyper4_vdev_bytes_total counter\n")
	for _, v := range all {
		fmt.Fprintf(w, "hyper4_vdev_bytes_total{vdev=%q} %d\n", escapeLabel(v.VDev), v.Bytes)
	}
	fmt.Fprintf(w, "# HELP hyper4_vdev_table_hits_total Virtual-table hits per virtual device.\n# TYPE hyper4_vdev_table_hits_total counter\n")
	for _, v := range all {
		for _, ts := range v.Tables {
			fmt.Fprintf(w, "hyper4_vdev_table_hits_total{vdev=%q,table=%q} %d\n",
				escapeLabel(v.VDev), escapeLabel(ts.Table), ts.Hits)
		}
	}
	fmt.Fprintf(w, "# HELP hyper4_vdev_table_misses_total Virtual-table misses per virtual device.\n# TYPE hyper4_vdev_table_misses_total counter\n")
	for _, v := range all {
		for _, ts := range v.Tables {
			fmt.Fprintf(w, "hyper4_vdev_table_misses_total{vdev=%q,table=%q} %d\n",
				escapeLabel(v.VDev), escapeLabel(ts.Table), ts.Misses)
		}
	}

	// Scraping health also advances the breaker state machine, so a
	// monitored switch transitions quarantined → probing → healthy without
	// any other management traffic.
	health := d.Health()
	fmt.Fprintf(w, "# HELP hyper4_vdev_health Circuit-breaker state (0 healthy, 1 degraded, 2 probing, 3 quarantined).\n# TYPE hyper4_vdev_health gauge\n")
	for _, v := range health.VDevs {
		fmt.Fprintf(w, "hyper4_vdev_health{vdev=%q} %d\n", escapeLabel(v.VDev), healthValue(v.State))
	}
	fmt.Fprintf(w, "# HELP hyper4_vdev_health_trips_total Circuit-breaker trips per virtual device.\n# TYPE hyper4_vdev_health_trips_total counter\n")
	for _, v := range health.VDevs {
		fmt.Fprintf(w, "hyper4_vdev_health_trips_total{vdev=%q} %d\n", escapeLabel(v.VDev), v.Trips)
	}
	fmt.Fprintf(w, "# HELP hyper4_vdev_faults_total Packet faults attributed to a virtual device.\n# TYPE hyper4_vdev_faults_total counter\n")
	for _, v := range health.VDevs {
		fmt.Fprintf(w, "hyper4_vdev_faults_total{vdev=%q} %d\n", escapeLabel(v.VDev), v.Faults)
	}
	counter("hyper4_unattributed_faults_total", "Packet faults with no owning virtual device.", health.Unattributed)
}

// writeIOMetrics renders the packet I/O runtime families: per-port frame
// and drop counters, per-ring occupancy, and the global processing counters.
func writeIOMetrics(w io.Writer, m pktio.Metrics) {
	fmt.Fprintf(w, "# HELP hyper4_rx_frames_total Frames received on a port's transport.\n# TYPE hyper4_rx_frames_total counter\n")
	for _, p := range m.Ports {
		fmt.Fprintf(w, "hyper4_rx_frames_total{port=\"%d\"} %d\n", p.Port, p.RxFrames)
	}
	fmt.Fprintf(w, "# HELP hyper4_tx_frames_total Frames transmitted out a port's transport.\n# TYPE hyper4_tx_frames_total counter\n")
	for _, p := range m.Ports {
		fmt.Fprintf(w, "hyper4_tx_frames_total{port=\"%d\"} %d\n", p.Port, p.TxFrames)
	}
	fmt.Fprintf(w, "# HELP hyper4_ring_depth Current occupancy of a port-worker ring.\n# TYPE hyper4_ring_depth gauge\n")
	for _, p := range m.Ports {
		for wkr, depth := range p.RxDepth {
			fmt.Fprintf(w, "hyper4_ring_depth{port=\"%d\",worker=\"%d\",dir=\"rx\"} %d\n", p.Port, wkr, depth)
		}
		for wkr, depth := range p.TxDepth {
			fmt.Fprintf(w, "hyper4_ring_depth{port=\"%d\",worker=\"%d\",dir=\"tx\"} %d\n", p.Port, wkr, depth)
		}
	}
	fmt.Fprintf(w, "# HELP hyper4_ring_drops_total Frames dropped because a ring was full.\n# TYPE hyper4_ring_drops_total counter\n")
	for _, p := range m.Ports {
		fmt.Fprintf(w, "hyper4_ring_drops_total{port=\"%d\",dir=\"rx\"} %d\n", p.Port, p.RxDrops)
		fmt.Fprintf(w, "hyper4_ring_drops_total{port=\"%d\",dir=\"tx\"} %d\n", p.Port, p.TxDrops)
	}
	fmt.Fprintf(w, "# HELP hyper4_tx_errors_total Transport send failures.\n# TYPE hyper4_tx_errors_total counter\n")
	for _, p := range m.Ports {
		fmt.Fprintf(w, "hyper4_tx_errors_total{port=\"%d\"} %d\n", p.Port, p.TxErrors)
	}
	fmt.Fprintf(w, "# HELP hyper4_io_processed_total Frames the runtime handed to the switch.\n# TYPE hyper4_io_processed_total counter\nhyper4_io_processed_total %d\n", m.Processed)
	fmt.Fprintf(w, "# HELP hyper4_io_proc_errors_total Frames the switch failed on.\n# TYPE hyper4_io_proc_errors_total counter\nhyper4_io_proc_errors_total %d\n", m.ProcErrs)
	fmt.Fprintf(w, "# HELP hyper4_unrouted_frames_total Frames forwarded to a port with no transport attached.\n# TYPE hyper4_unrouted_frames_total counter\nhyper4_unrouted_frames_total %d\n", m.Unrouted)
}

// writePortHealthMetrics renders the per-port breaker families. Quarantined
// ports stay listed even while their transport is detached — that is the
// alertable state.
func writePortHealthMetrics(w io.Writer, phs []pktio.PortHealth) {
	fmt.Fprintf(w, "# HELP hyper4_port_health Port circuit-breaker state (0 healthy, 1 degraded, 2 probing, 3 quarantined).\n# TYPE hyper4_port_health gauge\n")
	for _, p := range phs {
		fmt.Fprintf(w, "hyper4_port_health{port=\"%d\"} %d\n", p.Port, healthValue(p.State))
	}
	fmt.Fprintf(w, "# HELP hyper4_port_health_trips_total Port circuit-breaker trips.\n# TYPE hyper4_port_health_trips_total counter\n")
	for _, p := range phs {
		fmt.Fprintf(w, "hyper4_port_health_trips_total{port=\"%d\"} %d\n", p.Port, p.Trips)
	}
	fmt.Fprintf(w, "# HELP hyper4_port_reattach_total Successful automatic transport reattaches after quarantine.\n# TYPE hyper4_port_reattach_total counter\n")
	for _, p := range phs {
		fmt.Fprintf(w, "hyper4_port_reattach_total{port=\"%d\"} %d\n", p.Port, p.Reattaches)
	}
	fmt.Fprintf(w, "# HELP hyper4_port_io_errors_total Transport faults charged to a port's breaker window, by kind.\n# TYPE hyper4_port_io_errors_total counter\n")
	for _, p := range phs {
		fmt.Fprintf(w, "hyper4_port_io_errors_total{port=\"%d\",kind=\"recv\"} %d\n", p.Port, p.RecvErrors)
		fmt.Fprintf(w, "hyper4_port_io_errors_total{port=\"%d\",kind=\"send\"} %d\n", p.Port, p.SendErrors)
		fmt.Fprintf(w, "hyper4_port_io_errors_total{port=\"%d\",kind=\"stall\"} %d\n", p.Port, p.Stalls)
	}
}

// healthValue encodes a breaker state for the hyper4_vdev_health gauge,
// ordered by severity so alerts can threshold on it.
func healthValue(s breaker.State) int {
	switch s {
	case breaker.Degraded:
		return 1
	case breaker.Probing:
		return 2
	case breaker.Quarantined:
		return 3
	}
	return 0
}

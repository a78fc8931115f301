package main

import (
	"fmt"
	"math/rand"

	"hyper4/internal/pkt"
)

// flowSpec is one traffic template before the oracle has run: a frame that
// enters the switch on port. The benchmark stamps a sequence number into the
// frame's last seqLen bytes on every send.
type flowSpec struct {
	port int
	data []byte
}

// workloadDef is everything a workload hands the stack: the switch
// configuration as one textual control-plane script, the traffic templates,
// and the tables the write stream targets.
type workloadDef struct {
	name   string
	script []string
	flows  []flowSpec
	// sizes is the frame-size mix: every flow becomes weight copies of a
	// template of each size.
	sizes []sizeWeight
	// ports are the physical ports traffic enters and leaves by.
	ports []int
	// udp attaches the ports over loopback UDP instead of chan pairs.
	udp bool
	// journal makes the control plane journal every write (fsync before
	// ack), as hp4switch -journal does.
	journal bool
	// l2VDev/rtrVDev are the l2_switch- and router-programmed vdevs the
	// write stream adds, modifies and deletes entries on.
	l2VDev, rtrVDev string
	// Rates. closedWindow is the in-flight frames per ingress port in the
	// closed loop; openPPS is the open loop's offered frame rate;
	// writesPerSec is the write stream's rate, 0 for back to back.
	closedWindow int
	openPPS      float64
	writesPerSec float64
	// writesWithTraffic runs the write stream during both traffic phases
	// (churn); otherwise it runs alone after them.
	writesWithTraffic bool
	// phasePct splits a run's seconds between the closed loop, the open
	// loop and the write phase, in percent.
	phasePct [3]int
	// rounds is how many times a run cycles through its phases, each time
	// for a rounds-th of their time. On a shared runner the speed drifts
	// over seconds; interleaving spreads every metric's samples over the
	// whole run, so one slow spell cannot own a metric.
	rounds int
	// windows is how many equal slices the closed loop and each set of
	// samples are cut into; a metric is the median over its slices, so a
	// stall on a shared runner — a descheduled vCPU stops the switch for
	// milliseconds — moves a few slices, not the result. On churn a slice
	// must span many writes, or the slices would split into those with a
	// write stall and those without.
	windows int
}

type sizeWeight struct{ size, weight int }

// maxRounds bounds workloadDef.rounds.
const maxRounds = 16

// seqLen is the width of the sequence stamp at the end of every frame.
const seqLen = 6

func mac(a, b, c byte) string { return fmt.Sprintf("02:00:00:%02x:%02x:%02x", a, b, c) }

func macBytes(s string) pkt.MAC { return pkt.MustMAC(s) }

// frame builds an Ethernet/IPv4/(UDP|TCP) frame of exactly size bytes. The
// L4 payload carries the sequence stamp in its last seqLen bytes.
func frame(dst, src string, sip, dip pkt.IP4, tcpDst uint16, size int) []byte {
	var l4 pkt.Layer
	hdr := 14 + 20
	if tcpDst != 0 {
		l4 = &pkt.TCP{SrcPort: 40000, DstPort: tcpDst}
		hdr += 20
	} else {
		l4 = &pkt.UDP{SrcPort: 40000, DstPort: 9}
		hdr += 8
	}
	payload := make(pkt.Payload, size-hdr)
	return pkt.Serialize(
		&pkt.Ethernet{Dst: macBytes(dst), Src: macBytes(src), EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: protoOf(tcpDst), Src: sip, Dst: dip},
		l4, payload)
}

func protoOf(tcpDst uint16) uint8 {
	if tcpDst != 0 {
		return pkt.IPProtoTCP
	}
	return pkt.IPProtoUDP
}

func ip(a, b, c, d byte) pkt.IP4 { return pkt.IP4{a, b, c, d} }

// slicesDef is the sliced switch: eight physical ports, four tenants of two
// ports each — l2_switch, firewall, router, and an arp_proxy→firewall→router
// chain over virtual links. preloadHosts/preloadRoutes grow the l2 and router
// tables beyond what the traffic touches.
func slicesDef(name string, rng *rand.Rand, preloadHosts, preloadRoutes int) *workloadDef {
	var s []string
	add := func(f string, a ...any) { s = append(s, fmt.Sprintf(f, a...)) }
	for _, l := range []string{"l2 l2_switch", "fw firewall", "rtr router", "carp arp_proxy", "cfw firewall", "crtr router"} {
		add("load %s", l)
	}
	// Each tenant owns two physical ports, entering as virtual ports 1 and 2.
	tenant := func(vdev, out string, p1 int) {
		add("assign %d %s 1", p1, vdev)
		add("assign %d %s 2", p1+1, vdev)
		add("map %s 1 %d", out, p1)
		add("map %s 2 %d", out, p1+1)
	}
	tenant("l2", "l2", 1)
	tenant("fw", "fw", 3)
	tenant("rtr", "rtr", 5)
	tenant("carp", "crtr", 7)
	add("map carp 1 7")
	add("map carp 2 8")
	add("link carp 10 cfw 1")
	add("link cfw 10 crtr 1")

	// Four hosts per port on every tenant; the traffic runs between them.
	const hostsPerPort = 4
	host := func(tenant, port, i int) string { return mac(byte(tenant), byte(port), byte(i)) }
	hostIP := func(port, i int) pkt.IP4 { return ip(10, byte(port), 0, byte(i+1)) }

	// l2: smac+dmac per host, plus preloaded hosts split over both ports.
	for p := 1; p <= 2; p++ {
		for i := 0; i < hostsPerPort; i++ {
			add("l2 table_add smac _nop %s =>", host(1, p, i))
			add("l2 table_add dmac forward %s => %d", host(1, p, i), p)
		}
	}
	for i := 0; i < preloadHosts; i++ {
		m := mac(0x10, byte(i>>8), byte(i))
		add("l2 table_add smac _nop %s =>", m)
		add("l2 table_add dmac forward %s => %d", m, 1+i%2)
	}
	// Firewalls block TCP 5201 and switch on destination MAC.
	for _, fw := range []string{"fw", "cfw"} {
		add("%s table_add tcp_filter _drop 0&&&0 5201&&&0xffff => 1", fw)
	}
	for p := 1; p <= 2; p++ {
		for i := 0; i < hostsPerPort; i++ {
			add("fw table_add dmac forward %s => %d", host(2, p, i), p)
			add("cfw table_add dmac forward %s => 10", host(4, p, i))
		}
	}
	// Routers: a /24 per port, one next hop per host, a source MAC per port.
	for _, r := range []struct {
		vdev string
		base int
	}{{"rtr", 5}, {"crtr", 7}} {
		add("%s table_add validate_ttl _drop 0 =>", r.vdev)
		add("%s table_add validate_ttl _drop 1 =>", r.vdev)
		for p := 1; p <= 2; p++ {
			phys := r.base + p - 1
			add("%s table_add ipv4_lpm set_nhop 10.%d.0.0/24 => 10.%d.0.1 %d", r.vdev, phys, phys, p)
			tn := 3
			if r.vdev == "crtr" {
				tn = 4
			}
			add("%s table_add forward set_dmac 10.%d.0.1 => %s", r.vdev, phys, host(tn, p, 0))
			add("%s table_add send_frame rewrite_mac %d => aa:aa:aa:00:%02x:%02x", r.vdev, p, r.base, p)
		}
	}
	for i := 0; i < preloadRoutes; i++ {
		// 10.64.0.0/10 is never a traffic destination.
		add("rtr table_add ipv4_lpm set_nhop 10.%d.%d.0/24 => 10.5.0.1 %d", 64+i/256, i%256, 1+i%2)
	}
	// The ARP proxy answers for one address and passes everything else down
	// the chain.
	add("carp table_add check_arp mark_request 1 1 =>")
	add("carp table_add arp_resp proxy_reply 10.7.0.200 => %s", host(4, 1, 0))
	for p := 1; p <= 2; p++ {
		for i := 0; i < hostsPerPort; i++ {
			add("carp table_add smac _nop %s =>", host(4, p, i))
			add("carp table_add dmac forward %s => 10", host(4, p, i))
		}
	}

	d := &workloadDef{name: name, script: s, ports: []int{1, 2, 3, 4, 5, 6, 7, 8}, l2VDev: "l2", rtrVDev: "rtr"}
	// Traffic: every port sends to hosts behind its tenant's other port.
	for tn := 1; tn <= 4; tn++ {
		for p := 1; p <= 2; p++ {
			phys := 2*(tn-1) + p
			other := 3 - p
			otherPhys := 2*(tn-1) + other
			for i := 0; i < hostsPerPort; i++ {
				j := rng.Intn(hostsPerPort)
				src, dst := host(tn, p, i), host(tn, other, j)
				var tcp uint16
				if (tn == 2 || tn == 4) && i == hostsPerPort-1 {
					tcp = 5201 // blocked by the firewall: checked as a drop
				}
				d.flows = append(d.flows, flowSpec{port: phys, data: frame(dst, src, hostIP(phys, i), hostIP(otherPhys, j), tcp, 60)})
			}
		}
	}
	return d
}

// meshDef is the paper's Example Three (examples/multitenant): eight vdevs
// — a router per tenant, firewalls for tenants 1 and 2, two fabric l2
// switches — joined by bidirectional virtual links, with four hosts on
// physical ports 1–4.
func meshDef(rng *rand.Rand) *workloadDef {
	var s []string
	add := func(f string, a ...any) { s = append(s, fmt.Sprintf(f, a...)) }
	hostMAC := func(i int) string { return fmt.Sprintf("00:00:00:00:00:%02x", i+1) }
	rtrMAC := func(i int) string { return fmt.Sprintf("aa:aa:aa:aa:aa:%02x", i+1) }
	hostIP := func(i int) pkt.IP4 { return ip(10, 0, byte(i+1), 1) }
	for i := 1; i <= 4; i++ {
		add("load r%d router", i)
	}
	add("load f1 firewall")
	add("load f2 firewall")
	add("load l2_s1 l2_switch")
	add("load l2_s2 l2_switch")
	for i := 0; i < 4; i++ {
		r := fmt.Sprintf("r%d", i+1)
		add("%s table_add validate_ttl _drop 0 =>", r)
		add("%s table_add validate_ttl _drop 1 =>", r)
		add("%s table_add ipv4_lpm set_nhop 10.0.%d.0/24 => 10.0.%d.1 %d", r, i+1, i+1, i+1)
		add("%s table_add forward set_dmac 10.0.%d.1 => %s", r, i+1, hostMAC(i))
		add("%s table_add send_frame rewrite_mac %d => %s", r, i+1, rtrMAC(i))
		for j := 0; j < 4; j++ {
			if j == i {
				continue
			}
			add("%s table_add ipv4_lpm set_nhop 10.0.%d.0/24 => 10.0.%d.254 10", r, j+1, j+1)
			add("%s table_add forward set_dmac 10.0.%d.254 => %s", r, j+1, rtrMAC(j))
		}
		add("%s table_add send_frame rewrite_mac 10 => %s", r, rtrMAC(i))
		add("assign %d %s %d", i+1, r, i+1)
		add("map %s %d %d", r, i+1, i+1)
	}
	for k, f := range []struct {
		name    string
		blocked int
	}{{"f1", 2222}, {"f2", 8080}} {
		add("%s table_add tcp_filter _drop 0&&&0 %d&&&0xffff => 1", f.name, f.blocked)
		for j := 0; j < 4; j++ {
			out := 11
			if j == k {
				out = 10
			}
			add("%s table_add dmac forward %s => %d", f.name, rtrMAC(j), out)
		}
	}
	for _, h := range []struct {
		sw   string
		mac  int
		port int
	}{{"l2_s1", 0, 1}, {"l2_s1", 1, 2}, {"l2_s1", 2, 3}, {"l2_s1", 3, 3},
		{"l2_s2", 2, 1}, {"l2_s2", 3, 2}, {"l2_s2", 0, 3}, {"l2_s2", 1, 3}} {
		add("%s table_add smac _nop %s =>", h.sw, rtrMAC(h.mac))
		add("%s table_add dmac forward %s => %d", h.sw, rtrMAC(h.mac), h.port)
	}
	link := func(a string, ap int, b string, bp int) {
		add("link %s %d %s %d", a, ap, b, bp)
		add("link %s %d %s %d", b, bp, a, ap)
	}
	link("r1", 10, "f1", 10)
	link("r2", 10, "f2", 10)
	link("f1", 11, "l2_s1", 1)
	link("f2", 11, "l2_s1", 2)
	link("l2_s1", 3, "l2_s2", 3)
	link("r3", 10, "l2_s2", 1)
	link("r4", 10, "l2_s2", 2)

	d := &workloadDef{name: "mesh", script: s, ports: []int{1, 2, 3, 4}, l2VDev: "l2_s1", rtrVDev: "r1"}
	// Every host talks to every other host with one UDP and one allowed TCP
	// flow, and tenants 1 and 2 also receive their firewall's blocked TCP
	// port. The seed picks the allowed TCP port and the send order, never
	// the mix, so every seed costs the same.
	allowed := []uint16{80, 443, 22}
	for src := 0; src < 4; src++ {
		for dst := 0; dst < 4; dst++ {
			if src == dst {
				continue
			}
			tcps := []uint16{0, allowed[rng.Intn(len(allowed))]}
			switch dst {
			case 0:
				tcps = append(tcps, 2222)
			case 1:
				tcps = append(tcps, 8080)
			}
			for _, tcp := range tcps {
				d.flows = append(d.flows, flowSpec{port: src + 1,
					data: frame(rtrMAC(src), hostMAC(src), hostIP(src), hostIP(dst), tcp, 60)})
			}
		}
	}
	return d
}

// buildWorkload returns the definition of a named workload for a seed.
func buildWorkload(name string, seed int64) (*workloadDef, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "slices-chan":
		d := slicesDef(name, rng, 0, 0)
		d.sizes = []sizeWeight{{60, 1}}
		d.closedWindow, d.openPPS, d.writesPerSec = 32, 20000, 0
		d.phasePct, d.windows, d.rounds = [3]int{40, 30, 30}, 100, 10
		return d, nil
	case "slices-udp":
		d := slicesDef(name, rng, 0, 0)
		d.udp = true
		d.sizes = []sizeWeight{{60, 7}, {594, 4}, {1514, 1}}
		d.closedWindow, d.openPPS, d.writesPerSec = 16, 20000, 0
		d.phasePct, d.windows, d.rounds = [3]int{40, 30, 30}, 100, 10
		return d, nil
	case "churn":
		d := slicesDef(name, rng, 1000, 200)
		d.sizes = []sizeWeight{{60, 1}}
		d.journal = true
		d.writesWithTraffic = true
		d.closedWindow, d.openPPS, d.writesPerSec = 32, 20000, 10
		d.phasePct, d.windows, d.rounds = [3]int{33, 67, 0}, 5, 10
		return d, nil
	case "mesh":
		d := meshDef(rng)
		d.sizes = []sizeWeight{{60, 1}}
		// The interpreter forwards ~2k frames/s here: a light offered load
		// keeps queueing, and with it latency, insensitive to the runner's
		// speed, and the open loop runs longer to gather samples.
		d.closedWindow, d.openPPS, d.writesPerSec = 4, 300, 0
		d.phasePct, d.windows, d.rounds = [3]int{35, 45, 20}, 100, 10
		return d, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want slices-chan, slices-udp, churn or mesh)", name)
}

// resize grows a template frame to size bytes by extending its L4 payload,
// fixing the IPv4 and UDP length fields and the IPv4 header checksum. The
// sequence stamp stays the frame's last bytes.
func resize(data []byte, size int) []byte {
	out := make([]byte, size)
	copy(out, data)
	if size == len(data) {
		return out
	}
	ipLen := size - 14
	out[16], out[17] = byte(ipLen>>8), byte(ipLen)
	if out[23] == pkt.IPProtoUDP {
		udpLen := ipLen - 20
		out[38], out[39] = byte(udpLen>>8), byte(udpLen)
	}
	out[24], out[25] = 0, 0
	cs := pkt.Checksum(out[14:34])
	out[24], out[25] = byte(cs>>8), byte(cs)
	return out
}

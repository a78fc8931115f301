package main

import (
	"bufio"
	"encoding/json"
	"os"
	goruntime "runtime"
	"strings"
	"syscall"
)

// fingerprint describes the runner a result came from.
func fingerprint(def *workloadDef, scratch string) string {
	transport := "chan (in-process)"
	if def.udp {
		transport = "udp over loopback (127.0.0.1)"
	}
	fs := "none (no journal)"
	if def.journal {
		fs = fsType(scratch)
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":      goruntime.NumCPU(),
		"gomaxprocs": goruntime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         goruntime.Version(),
		"journal_fs": fs,
		"transport":  transport,
	})
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "unknown"
}

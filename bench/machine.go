package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

//go:embed machine.json
var machineJSON []byte

// machine is the runtime class every benchmark process runs in, so numbers
// from different runs describe the same machine shape. There is no memory
// limit: apply clears any GOMEMLIMIT inherited from the environment.
type machine struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	GOGC       int `json:"gogc"`
}

func loadMachine() (machine, error) {
	var m machine
	if err := json.Unmarshal(machineJSON, &m); err != nil {
		return m, fmt.Errorf("bench/machine.json: %w", err)
	}
	if m.GOMAXPROCS < 1 || m.GOGC < 1 {
		return m, fmt.Errorf("bench/machine.json: gomaxprocs and gogc must be >= 1, got %+v", m)
	}
	return m, nil
}

// apply pins the process to the machine class, overriding GOMAXPROCS, GOGC
// and GOMEMLIMIT from the environment.
func (m machine) apply() {
	runtime.GOMAXPROCS(m.GOMAXPROCS)
	debug.SetGCPercent(m.GOGC)
	debug.SetMemoryLimit(math.MaxInt64)
}

// header describes the machine class and the host it actually ran on. It
// warns when the host has fewer CPUs than the class assumes: the load
// generator and the server then share cores and every latency is inflated.
func (m machine) header(scratch string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# machine: GOMAXPROCS=%d GOGC=%d GOMEMLIMIT=off nproc=%d %s %s/%s scratch=%s (%s)\n",
		m.GOMAXPROCS, m.GOGC, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, scratch, fsType(scratch))
	if runtime.NumCPU() < m.GOMAXPROCS {
		fmt.Fprintf(&sb, "# WARNING: nproc=%d < GOMAXPROCS=%d: NUMBERS FROM THIS HOST ARE NOT COMPARABLE WITH THE REFERENCE BOX\n",
			runtime.NumCPU(), m.GOMAXPROCS)
	}
	return sb.String()
}

// fsType names the filesystem holding path (WAL fsync cost depends on it),
// from the longest matching mount point in /proc/mounts.
func fsType(path string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MiB.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostStamp records where a result was measured.
type hostStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Scale      string `json:"scale"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

// stampHost prints the host stamp line.
func (b *bench) stampHost() {
	scale := "full"
	if b.opt.small {
		scale = "small"
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	h := hostStamp{
		Workload:   b.opt.workload,
		Seed:       b.opt.seed,
		Trace:      b.opt.trace,
		Scale:      scale,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		Commit:     commit,
	}
	line, _ := json.Marshal(h) // a struct of strings, ints and bools always encodes
	fmt.Fprintf(b.w, "host %s\n", line)
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// maxRSSMB returns the process's peak resident set size in MB, from
// VmHWM in /proc/self/status, falling back to the Go runtime's memory
// obtained from the OS where /proc is absent.
func maxRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb * 1024 / 1e6
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

// workers is the client count and worker-pool size of every workload:
// the host's processors, at most two, so that runs on larger hosts do
// the same work as on the two-processor reference host.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// Command perfbench is the reproduction's benchmark. It runs one of
// four workloads on the simulated Table I cluster, checks every output,
// and prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run, --trace 1):
//
//	fig5   experiment.Fig5: estimate all six models, observe linear
//	       gather, predict (the payload-heavy figure reproduction)
//	lmo16  one estimate.LMOX on 16 nodes (the paper's triplet procedure)
//	tune   autotune.Tune over the 1-200 KB sweep on a pre-estimated model
//	serve  an in-process lmoserve on loopback HTTP under a closed loop
//
// Human-readable lines (host stamp, named metrics, checks, exact
// counts) come first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is
// 1 when an output check or an operation failed, 2 when the run could
// not start. See README.md for the workload, layer and metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool   // smallest sizes, for the smoke test
	out      string // directory for span and CPU-profile files
}

// workload is one runner and whether it runs the event simulator.
type workload struct {
	run       func(*bench) error
	simulates bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]workload{
	"fig5":  {runFig5, true},
	"lmo16": {runLMO16, true},
	"tune":  {runTune, true},
	"serve": {runServe, false},
}

// procs is the GOMAXPROCS a workload runs at. The simulating workloads
// run on one P: the event simulator runs one simulated process at a
// time, so a second P adds only cross-P goroutine handoffs, and on a
// shared 2-vCPU VM it ties every timing to the second vCPU's
// availability: between two ten-run sets an hour apart, tune's iter_s
// moved from 0.59 to 1.22 s and fig5's from 1.78 to 2.58 s at
// GOMAXPROCS=2, while lmo16 at GOMAXPROCS=1 read 0.2659 and 0.2653 s.
// Their worker pools stay at workers(), time-shared on the one P.
// serve is a concurrent server whose registry read path is built for
// parallel readers, so it runs at the default GOMAXPROCS capped by
// workers(): one P per client.
func (w workload) procs() int {
	if w.simulates {
		return 1
	}
	return min(runtime.GOMAXPROCS(0), workers())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var trace int
	var scale string
	fs.StringVar(&opt.workload, "workload", "", "workload: fig5, lmo16, tune or serve")
	fs.Int64Var(&opt.seed, "seed", 1, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "host seconds of measurement")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&scale, "scale", "full", "full or small (smallest sizes, for the smoke test)")
	fs.StringVar(&opt.out, "out", ".bench_build", "directory for span and CPU-profile files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[opt.workload]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (fig5, lmo16, tune, serve)\n", opt.workload)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case scale != "full" && scale != "small":
		fmt.Fprintln(stderr, "perfbench: --scale must be full or small")
		return 2
	case opt.seconds <= 0:
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	opt.trace = trace == 1
	opt.small = scale == "small"
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs()))
	b := newBench(opt, stdout)
	b.stampHost()
	if err := wl.run(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 2
	}
	b.metric("error_ratio", b.errorRatio())
	if b.tr != nil {
		if err := b.tr.write(b.outPath("spans", "jsonl")); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 2
		}
	}

	res := b.result()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// phaseLength is the host time one measurement phase runs: the whole
// --seconds untraced, a third of it for each of the traced run's three
// phases (untraced reference, traced, untraced under the CPU profiler).
func (b *bench) phaseLength() time.Duration {
	d := time.Duration(b.opt.seconds * float64(time.Second))
	if b.opt.trace {
		d /= 3
	}
	return d
}

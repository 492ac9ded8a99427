package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how often each workload's set-up runs; setup_s is the
// median.
const setupReps = 3

// endToEnd are the metrics the untraced run reports in its JSON line:
// the ones every workload defines. BENCHMARK.json lists the same names.
var endToEnd = []string{"setup_s", "iter_s", "alloc_mb", "allocs_k", "max_rss_mb"}

// namedEndToEnd are every workload's end-to-end metrics, printed as
// "metric <name> <value> <unit>" lines before the JSON line.
var namedEndToEnd = map[string][]string{
	"fig5":  {"setup_s", "iter_s", "alloc_mb", "allocs_k", "max_rss_mb", "sim_virtual_s", "lmo_err_pct", "error_ratio"},
	"lmo16": {"setup_s", "iter_s", "alloc_mb", "allocs_k", "max_rss_mb", "sim_virtual_s", "param_err_pct", "error_ratio"},
	"tune":  {"setup_s", "iter_s", "alloc_mb", "allocs_k", "max_rss_mb", "sim_virtual_s", "tune_agree_pct", "error_ratio"},
	"serve": {"setup_s", "iter_s", "alloc_mb", "allocs_k", "max_rss_mb", "predictions_per_s", "hit_p50_ms", "hit_p99_ms", "miss_p50_ms", "error_ratio"},
}

// e2eUnits gives the unit of every end-to-end metric name.
var e2eUnits = map[string]string{
	"setup_s":           "s",
	"iter_s":            "s",
	"alloc_mb":          "MB",
	"allocs_k":          "thousands",
	"max_rss_mb":        "MB",
	"sim_virtual_s":     "sim_s",
	"lmo_err_pct":       "%",
	"param_err_pct":     "%",
	"tune_agree_pct":    "%",
	"predictions_per_s": "1/s",
	"hit_p50_ms":        "ms",
	"hit_p99_ms":        "ms",
	"miss_p50_ms":       "ms",
	"error_ratio":       "ratio",
}

// perLayer are the traced run's metrics, in report order, with units.
// A layer the workload does not cross reports 0.
var perLayer = []struct{ name, unit string }{
	{"estimate.lmox_s", "s"},
	{"estimate.irrscan_s", "s"},
	{"estimate.hethockney_s", "s"},
	{"estimate.busy_s", "s"},
	{"estimate.experiments", "count"},
	{"estimate.kept_ratio", "ratio"},
	{"estimate.virtual_s", "sim_s"},
	{"mpib.repetitions", "count"},
	{"mpib.retries", "count"},
	{"mpib.nonconverged", "count"},
	{"experiment.observe_s", "s"},
	{"mpi.gather_s", "s"},
	{"simnet.messages", "count"},
	{"simnet.bytes", "B"},
	{"simnet.escalations", "count"},
	{"simnet.serialized", "count"},
	{"mpi.host_bytes_per_sim_byte", "ratio"},
	{"cpu.vtime", "%"},
	{"cpu.simnet", "%"},
	{"cpu.mpi", "%"},
	{"cpu.mpib", "%"},
	{"cpu.estimate", "%"},
	{"cpu.models", "%"},
	{"cpu.serve", "%"},
	{"cpu.runtime_gc", "%"},
	{"cpu.runtime_memmove", "%"},
	{"models.predict_ns.linear", "ns"},
	{"models.predict_ns.binomial", "ns"},
	{"models.predict_allocs.binomial", "count"},
	{"serve.server_mean_ms", "ms"},
	{"serve.registry_lookup_ns", "ns"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.estimations", "count"},
	{"serve.swaps", "count"},
	{"serve.shed", "count"},
	{"autotune.tune_s", "s"},
	{"autotune.candidates", "count"},
	{"autotune.simulated", "count"},
	{"campaign.tasks", "count"},
	{"campaign.failed", "count"},
	{"campaign.utilization", "ratio"},
	{"trace_overhead_pct", "%"},
}

// metricValue is one metric of the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench is the state of one run: options, the human-readable output,
// the operation and check tallies, and the metrics gathered so far.
type bench struct {
	opt       options
	w         io.Writer
	tr        *tracer // nil in the untraced run
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
}

func newBench(opt options, w io.Writer) *bench {
	b := &bench{opt: opt, w: w, e2e: map[string]float64{}, layer: map[string]float64{}}
	if opt.trace {
		b.tr = newTracer()
	}
	return b
}

// outPath names a file of this run under the output directory.
func (b *bench) outPath(kind, ext string) string {
	return filepath.Join(b.opt.out, fmt.Sprintf("%s-%s.%s", kind, b.opt.workload, ext))
}

// op counts one attempted operation; a non-nil error counts as failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.w, "error %v\n", err)
	}
}

// check counts one output check and prints its outcome.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	status := "ok  "
	if !ok {
		b.failed++
		status = "FAIL"
	}
	fmt.Fprintf(b.w, "check %s %s\n", status, fmt.Sprintf(format, args...))
}

// metric records and prints a named end-to-end metric.
func (b *bench) metric(name string, v float64) {
	unit, ok := e2eUnits[name]
	if !ok {
		panic("perfbench: unknown end-to-end metric " + name)
	}
	b.e2e[name] = v
	fmt.Fprintf(b.w, "metric %s %s %s\n", name, fmtFloat(v), unit)
}

// timing records a timing metric (seconds in secs, reported in the
// metric's unit via scale) as its median, and prints the highest
// percentile that has at least ten samples beyond it.
func (b *bench) timing(name string, secs []float64, scale float64) {
	b.metric(name, scale*median(secs))
	if p, v, ok := tailPercentile(secs); ok {
		fmt.Fprintf(b.w, "tail %s p%d %s %s (n=%d)\n", name, p, fmtFloat(scale*v), e2eUnits[name], len(secs))
	} else {
		fmt.Fprintf(b.w, "tail %s none (n=%d: no percentile from p50 up has ten samples beyond it)\n", name, len(secs))
	}
}

// setLayer records a per-layer metric of the traced run.
func (b *bench) setLayer(name string, v float64) {
	b.layer[name] = v
}

// exact prints a value that must be identical between the traced and
// the untraced run on the same seed.
func (b *bench) exact(name string, v any) {
	fmt.Fprintf(b.w, "exact %s %v\n", name, v)
}

// peakRSS records max_rss_mb, the process's peak resident memory so
// far. Each runner calls it after its measured phases and before the
// gather replay, so the replay's payloads cannot set the peak of a
// workload that does not gather.
func (b *bench) peakRSS() {
	b.metric("max_rss_mb", maxRSSMB())
}

func (b *bench) errorRatio() float64 {
	return float64(b.failed) / float64(b.attempted)
}

// result assembles the JSON line: end-to-end metrics in the untraced
// run, per-layer metrics in the traced one.
func (b *bench) result() result {
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metricValue{},
	}
	if b.opt.trace {
		for _, l := range perLayer {
			v := b.layer[l.name]
			res.Metrics[l.name] = metricValue{Value: v, Unit: l.unit}
			fmt.Fprintf(b.w, "layer %s %s %s\n", l.name, fmtFloat(v), l.unit)
		}
		return res
	}
	for _, name := range endToEnd {
		res.Metrics[name] = metricValue{Value: b.e2e[name], Unit: e2eUnits[name]}
	}
	return res
}

// setup runs fn setupReps times, records the median host time as
// setup_s, and returns the last run's error.
func (b *bench) setup(fn func(rep int) error) error {
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	b.metric("setup_s", median(secs))
	return nil
}

// phase is one measured stretch of iterations.
type phase struct {
	secs    []float64 // host seconds per iteration
	mallocs uint64    // heap allocations during the phase
	bytes   uint64    // heap bytes allocated during the phase
}

// measure runs iter (with its iteration index) at least once and until
// a phase length of host time has passed. An iteration error is
// counted as a failed operation; the phase goes on.
func (b *bench) measure(iter func(i int) error) phase {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	d := b.phaseLength()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t0 := time.Now()
		err := iter(i)
		p.secs = append(p.secs, time.Since(t0).Seconds())
		b.op(err)
	}
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// tracedPhases runs the traced run's second and third phases: traced
// iterations, then plain ones under the CPU profiler, which would
// otherwise inflate the traced iterations' times. It returns the
// traced phase.
func (b *bench) tracedPhases(traced, plain func(i int) error) (phase, error) {
	t := b.measure(traced)
	return t, b.profiled(func() { b.measure(plain) })
}

// perIteration reports a phase's end-to-end metrics: iter_s and the
// allocation volume per iteration.
func (b *bench) perIteration(p phase) {
	n := float64(len(p.secs))
	b.timing("iter_s", p.secs, 1)
	fmt.Fprintf(b.w, "info iter_s samples %.4g\n", p.secs)
	b.metric("alloc_mb", float64(p.bytes)/n/1e6)
	b.metric("allocs_k", float64(p.mallocs)/n/1e3)
}

// overhead records trace_overhead_pct from the median iteration times
// of the untraced reference phase and the traced phase.
func (b *bench) overhead(untraced, traced []float64) {
	u, t := median(untraced), median(traced)
	if u > 0 {
		b.setLayer("trace_overhead_pct", 100*(t/u-1))
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(p)/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// tailPercentile returns the highest whole percentile of xs that has
// at least ten samples above it, with its value.
func tailPercentile(xs []float64) (int, float64, bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	p := int(math.Floor(100 * float64(n-10) / float64(n)))
	if p > 99 {
		p = 99
	}
	if p < 50 {
		return 0, 0, false
	}
	return p, percentile(xs, p), true
}

// fmtFloat prints a float with all its digits.
func fmtFloat(v float64) string {
	return fmt.Sprintf("%.10g", v)
}

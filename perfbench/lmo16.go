package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
)

// paramErrTolerance is the largest mean |rel. err| of the estimated
// LMO parameters against Table I that the lmo16 check accepts, in
// percent. The estimator reaches about 11% on the 16-node cluster:
// the per-link β_ij carry most of it.
const paramErrTolerance = 15.0

// lmoOut is one LMOX estimation's outputs.
type lmoOut struct {
	model *models.LMOX
	rep   estimate.Report
}

// fingerprint renders every estimated parameter and report count.
func (o lmoOut) fingerprint() string {
	return fmt.Sprint(o.model.C, o.model.T, o.model.L, o.model.Beta,
		o.rep.Cost, o.rep.Experiments, o.rep.Repetitions, o.rep.Retries, o.rep.NonConverged, len(o.rep.Dropped))
}

// runLMO16 is the lmo16 workload: one extended-LMO estimation
// (estimate.LMOX, parallel schedule) on the 16-node Table I cluster
// under LAM per iteration. Set-up is one untimed warm-up estimation.
func runLMO16(b *bench) error {
	cfg := experiment.Default()
	cfg.Seed = b.opt.seed
	if b.opt.small {
		cfg.Cluster = cluster.Table1().Prefix(8)
	}
	mc := mpi.Config{Cluster: cfg.Cluster, Profile: cfg.Profile, Seed: cfg.Seed}
	if err := b.setup(func(int) error {
		_, _, err := estimate.LMOX(mc, cfg.Est)
		return err
	}); err != nil {
		return err
	}

	var outs []lmoOut
	iterate := func(tr *tracer, i int) error {
		root := tr.begin("lmo16", 0, i)
		defer tr.end(root)
		var out lmoOut
		err := tr.call("estimate.lmox", root, i, func() (err error) {
			out.model, out.rep, err = estimate.LMOX(mc, cfg.Est)
			return err
		})
		if err == nil {
			outs = append(outs, out)
		}
		return err
	}
	plain := func(i int) error { return iterate(nil, i) }
	ref := b.measure(plain)
	if b.tr != nil {
		start := len(outs)
		var tracedIters []int
		traced, err := b.tracedPhases(
			func(i int) error {
				tracedIters = append(tracedIters, i)
				return iterate(b.tr, i)
			}, plain)
		if err != nil {
			return err
		}
		if len(outs) == start {
			return fmt.Errorf("every traced LMOX iteration failed")
		}
		b.overhead(ref.secs, traced.secs)
		b.spanLayers(tracedIters)
		b.estimateLayer([]estimate.Report{outs[start].rep}, &outs[start].rep)
		if err := b.timeModels(outs[start].model); err != nil {
			return err
		}
	}
	if len(outs) == 0 {
		return fmt.Errorf("every LMOX iteration failed")
	}

	first := outs[0]
	fp := first.fingerprint()
	same := true
	for _, o := range outs[1:] {
		same = same && o.fingerprint() == fp
	}
	b.check(same, "all %d LMOX iterations of this run give identical parameters and reports", len(outs))

	n := cfg.Cluster.N()
	want := 2*n*(n-1)/2 + 6*n*(n-1)*(n-2)/6 // 2·C(n,2) round trips + 2·3·C(n,3) one-to-two
	b.check(first.rep.Experiments == want, "LMOX ran %d experiments (want 2·C(n,2)+6·C(n,3) = %d)", first.rep.Experiments, want)
	perr := paramErrPct(first.model, cfg.Cluster)
	b.check(perr < paramErrTolerance, "param_err_pct %.2f%% is under the %.0f%% tolerance", perr, paramErrTolerance)

	b.perIteration(ref)
	b.metric("sim_virtual_s", first.rep.Cost.Seconds())
	b.metric("param_err_pct", perr)
	b.exact("sim_virtual_s", first.rep.Cost.Seconds())
	b.exact("estimate.experiments", first.rep.Experiments)
	b.exact("mpib.repetitions", first.rep.Repetitions)
	b.exact("param_err_pct", perr)
	b.peakRSS()
	return b.replayGather(cfg)
}

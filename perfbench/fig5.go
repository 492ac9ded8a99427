package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/textplot"
)

// fig5Models are the predicting series of experiment.Fig5's report.
var fig5Models = []string{"het-Hockney", "LogGP", "PLogP", "LMO (eq 5)"}

// fig5Out is what the checks and metrics read from one Fig5 report.
type fig5Out struct {
	fingerprint string               // every series value and M1/M2, for exact comparison
	observed    []float64            // observed (mean) linear gather, seconds
	preds       map[string][]float64 // per model, seconds
	m1, m2      int                  // detected irregularity thresholds
}

// summarizeFig5 reads a Fig5 report.
func summarizeFig5(rep *experiment.Report) (fig5Out, error) {
	out := fig5Out{preds: map[string][]float64{}}
	var fp strings.Builder
	for _, s := range rep.Series {
		ys := make([]float64, len(s.Points))
		fmt.Fprintf(&fp, "%s:", s.Name)
		for i, p := range s.Points {
			ys[i] = p.Y
			fmt.Fprintf(&fp, " %v@%v", p.Y, p.X)
		}
		fp.WriteString("\n")
		if s.Name == "observed (mean)" {
			out.observed = ys
		} else {
			out.preds[s.Name] = ys
		}
	}
	if len(rep.Notes) == 0 {
		return out, fmt.Errorf("fig5 report has no LMO parameter note")
	}
	if _, err := fmt.Sscanf(rep.Notes[0], "LMO empirical parameters: M1=%d B, M2=%d B", &out.m1, &out.m2); err != nil {
		return out, fmt.Errorf("fig5 report: reading M1/M2: %w", err)
	}
	fmt.Fprintf(&fp, "M1=%d M2=%d", out.m1, out.m2)
	out.fingerprint = fp.String()
	for _, name := range fig5Models {
		if len(out.preds[name]) != len(out.observed) || len(out.observed) == 0 {
			return out, fmt.Errorf("fig5 report: series %q missing or mis-sized", name)
		}
	}
	return out, nil
}

// relErrs returns the per-size |relative error| of pred against obs.
func relErrs(obs, pred []float64) []float64 {
	out := make([]float64, len(obs))
	for i := range obs {
		if obs[i] != 0 {
			out[i] = math.Abs(pred[i]-obs[i]) / obs[i]
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// fig5Traced computes what experiment.Fig5 computes — EstimateAll's
// five estimations, the linear-gather observation and the predictions
// — with a span around each call into a layer. It returns the same
// report series (so the outputs can be compared exactly), the
// estimation reports, and the LMO model.
func fig5Traced(tr *tracer, iter int, cfg experiment.Config) (*experiment.Report, []estimate.Report, *estimate.Report, *models.LMOX, error) {
	root := tr.begin("fig5", 0, iter)
	defer tr.end(root)
	mc := mpi.Config{Cluster: cfg.Cluster, Profile: cfg.Profile, Seed: cfg.Seed}
	var (
		reps   []estimate.Report
		lmoRep estimate.Report
		het    *models.HetHockney
		loggp  *models.LogGP
		plogp  *models.PLogP
		lmo    *models.LMOX
		irr    models.GatherEmpirical
		obs    experiment.Observation
	)
	steps := []struct {
		span string
		fn   func() error
	}{
		{"estimate.hethockney", func() (err error) {
			var r estimate.Report
			het, r, err = estimate.HetHockney(mc, cfg.Est)
			reps = append(reps, r)
			return err
		}},
		{"estimate.logp", func() (err error) {
			var r estimate.Report
			_, loggp, r, err = estimate.LogPLogGP(mc, cfg.Est)
			reps = append(reps, r)
			return err
		}},
		{"estimate.plogp", func() (err error) {
			var r estimate.Report
			plogp, r, err = estimate.PLogP(mc, cfg.Est)
			reps = append(reps, r)
			return err
		}},
		{"estimate.lmox", func() (err error) {
			lmo, lmoRep, err = estimate.LMOX(mc, cfg.Est)
			reps = append(reps, lmoRep)
			return err
		}},
		{"estimate.irrscan", func() (err error) {
			var r estimate.Report
			irr, r, err = estimate.DetectGatherIrregularity(mc, cfg.Root, estimate.DefaultScanSizes(), cfg.ScanReps, cfg.Est)
			reps = append(reps, r)
			return err
		}},
		{"experiment.observe", func() (err error) {
			obs, err = experiment.Observe(cfg, experiment.Gather, mpi.Linear)
			return err
		}},
	}
	for _, s := range steps {
		if err := tr.call(s.span, root, iter, s.fn); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: %w", s.span, err)
		}
	}
	lmo.Gather = irr

	rep := &experiment.Report{ID: "fig5"}
	pid := tr.begin("models.predict", root, iter)
	n, r := cfg.Cluster.N(), cfg.Root
	add := func(name string, ys []float64) {
		s := textplot.Series{Name: name}
		for i, m := range obs.Sizes {
			s.Points = append(s.Points, textplot.Point{X: float64(m), Y: ys[i]})
		}
		rep.Series = append(rep.Series, s)
	}
	sweep := func(f func(m int) float64) []float64 {
		ys := make([]float64, len(obs.Sizes))
		for i, m := range obs.Sizes {
			ys[i] = f(m)
		}
		return ys
	}
	add("observed (mean)", obs.Mean)
	add("observed (worst rep)", obs.Max)
	add("het-Hockney", sweep(func(m int) float64 { return het.GatherLinear(r, n, m) }))
	add("LogGP", sweep(func(m int) float64 { return loggp.GatherLinear(r, n, m) }))
	add("PLogP", sweep(func(m int) float64 { return plogp.GatherLinear(r, n, m) }))
	add("LMO (eq 5)", sweep(func(m int) float64 { return lmo.GatherLinear(r, n, m) }))
	add("LMO band low", sweep(func(m int) float64 { lo, _ := lmo.GatherLinearBand(r, n, m); return lo }))
	add("LMO band high", sweep(func(m int) float64 { _, hi := lmo.GatherLinearBand(r, n, m); return hi }))
	rep.Notes = append(rep.Notes, fmt.Sprintf("LMO empirical parameters: M1=%d B, M2=%d B", irr.M1, irr.M2))
	tr.end(pid)
	return rep, reps, &lmoRep, lmo, nil
}

// runFig5 is the fig5 workload: experiment.Fig5 on the 16-node Table I
// cluster under LAM. Set-up is a warm-up Fig5 on a 4-node prefix.
func runFig5(b *bench) error {
	cfg := experiment.Default()
	cfg.Seed = b.opt.seed
	if b.opt.small {
		cfg.Cluster = cluster.Table1().Prefix(8)
	}
	warm := cfg
	warm.Cluster = cluster.Table1().Prefix(4)
	if err := b.setup(func(int) error {
		_, err := experiment.Fig5(warm)
		return err
	}); err != nil {
		return err
	}

	var reports []*experiment.Report
	plain := func(int) error {
		rep, err := experiment.Fig5(cfg)
		if err == nil {
			reports = append(reports, rep)
		}
		return err
	}
	ref := b.measure(plain)
	var outs []fig5Out
	if b.tr != nil {
		var tracedIters []int
		var estReps []estimate.Report
		var lmoRep *estimate.Report
		var lmo *models.LMOX
		traced, err := b.tracedPhases(func(i int) error {
			rep, reps, lr, model, err := fig5Traced(b.tr, i, cfg)
			if err != nil {
				return err
			}
			out, err := summarizeFig5(rep)
			if err != nil {
				return err
			}
			outs = append(outs, out)
			tracedIters = append(tracedIters, i)
			if lmo == nil {
				estReps, lmoRep, lmo = reps, lr, model
			}
			return nil
		}, plain)
		if err != nil {
			return err
		}
		if lmo == nil {
			return fmt.Errorf("every traced Fig5 iteration failed")
		}
		b.overhead(ref.secs, traced.secs)
		b.spanLayers(tracedIters)
		b.estimateLayer(estReps, lmoRep)
		if err := b.timeModels(lmo); err != nil {
			return err
		}
	}
	for _, rep := range reports {
		out, err := summarizeFig5(rep)
		b.op(err)
		if err == nil {
			outs = append(outs, out)
		}
	}
	if len(outs) == 0 {
		return fmt.Errorf("no readable Fig5 report")
	}

	first := outs[0]
	same := true
	for _, o := range outs[1:] {
		same = same && o.fingerprint == first.fingerprint
	}
	b.check(same, "all %d Fig5 iterations of this run give identical reports", len(outs))

	b.perIteration(ref)
	simVirtual := 0.0
	for _, y := range first.observed {
		simVirtual += y
	}
	b.metric("sim_virtual_s", simVirtual)
	means := map[string]float64{}
	medians := map[string]float64{}
	for _, name := range fig5Models {
		errs := relErrs(first.observed, first.preds[name])
		means[name], medians[name] = 100*mean(errs), 100*median(errs)
		fmt.Fprintf(b.w, "info fig5 %s mean |rel.err| %.1f%%, median %.1f%%\n", name, means[name], medians[name])
	}
	lmoName := fig5Models[len(fig5Models)-1]
	b.metric("lmo_err_pct", means[lmoName])
	b.exact("sim_virtual_s", simVirtual)
	b.exact("lmo_err_pct", means[lmoName])
	b.exact("gather_M1", first.m1)
	b.exact("gather_M2", first.m2)

	// The models are ranked by median |rel. err|: the mean is dominated
	// by single irregular-region sizes whose ten repetitions happened to
	// draw no escalation (README.md, "Known gaps").
	ranked := append([]string(nil), fig5Models...)
	sort.SliceStable(ranked, func(i, j int) bool { return medians[ranked[i]] < medians[ranked[j]] })
	b.check(ranked[0] == lmoName, "LMO has the lowest median |rel. err| against observed linear gather (%s %.1f%%, next %s %.1f%%)",
		ranked[0], medians[ranked[0]], ranked[1], medians[ranked[1]])
	meanRanked := append([]string(nil), fig5Models...)
	sort.SliceStable(meanRanked, func(i, j int) bool { return means[meanRanked[i]] < means[meanRanked[j]] })
	fmt.Fprintf(b.w, "info fig5 lowest mean |rel.err|: %s\n", meanRanked[0])
	b.check(first.m1 > 0 && first.m1 < first.m2, "gather irregularity detected with M1 < M2 (M1=%d B, M2=%d B)", first.m1, first.m2)

	b.peakRSS()
	return b.replayGather(cfg)
}

package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/autotune"
	"repro/internal/campaign"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/tuned"
)

// minAgreement is the tuner's acceptance bar for Result.Agreement.
const minAgreement = 0.8

// tuneOut is one tuning run's outputs.
type tuneOut struct {
	res        *autotune.Result
	simVirtual float64 // Σ simulated makespans of the validated candidates
}

// fingerprint renders every cell's ranking and the table's winners.
func (o tuneOut) fingerprint() string {
	var sb strings.Builder
	for _, c := range o.res.Cells {
		fmt.Fprintf(&sb, "%s/%d:", c.Op, c.M)
		for _, s := range c.Ranked {
			fmt.Fprintf(&sb, " %s=%v/%v", s.Candidate, s.PredictedS, s.SimulatedS)
		}
		fmt.Fprintf(&sb, " win=%s\n", c.Winner.Candidate)
	}
	fmt.Fprintf(&sb, "agree=%v simulated=%d", o.res.Agreement, o.res.Simulated)
	return sb.String()
}

// estimateTuneModel estimates the pruning model: LMOX plus the gather
// irregularity scan, with spans when traced.
func estimateTuneModel(tr *tracer, iter int, cfg experiment.Config) (*models.LMOX, []estimate.Report, error) {
	root := tr.begin("tune.setup", 0, iter)
	defer tr.end(root)
	mc := mpi.Config{Cluster: cfg.Cluster, Profile: cfg.Profile, Seed: cfg.Seed}
	var lmo *models.LMOX
	var irr models.GatherEmpirical
	reps := make([]estimate.Report, 2)
	err := tr.call("estimate.lmox", root, iter, func() (err error) {
		lmo, reps[0], err = estimate.LMOX(mc, cfg.Est)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	err = tr.call("estimate.irrscan", root, iter, func() (err error) {
		irr, reps[1], err = estimate.DetectGatherIrregularity(mc, cfg.Root, estimate.DefaultScanSizes(), cfg.ScanReps, cfg.Est)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	lmo.Gather = irr
	return lmo, reps, nil
}

// runTune is the tune workload: autotune.Tune over the default
// 1-200 KB sweep on the 16-node Table I cluster, validating across the
// campaign worker pool. Set-up estimates the LMO pruning model.
func runTune(b *bench) error {
	// tune has no smaller scale: on an 8-node prefix the tuner's
	// agreement falls below minAgreement on more seeds (0.68 on seed 2).
	cfg := experiment.Default()
	cfg.Seed = b.opt.seed
	var lmo *models.LMOX
	var setupReports []estimate.Report
	var setupIters []int
	if err := b.setup(func(rep int) error {
		it := -1 - rep
		m, reps, err := estimateTuneModel(b.tr, it, cfg)
		if err == nil {
			lmo, setupReports = m, reps
			setupIters = append(setupIters, it)
		}
		return err
	}); err != nil {
		return err
	}

	ctx := context.Background()
	var outs []tuneOut
	var utils []float64 // campaign pool utilization per traced iteration
	iterate := func(tr *tracer, i int) error {
		root := tr.begin("tune", 0, i)
		defer tr.end(root)
		st := &campaign.Stats{}
		var out tuneOut
		var util float64
		stop := sampleUtilization(tr != nil, st, &util)
		err := tr.call("autotune.tune", root, i, func() (err error) {
			out.res, err = autotune.Tune(ctx, cfg, lmo, autotune.Options{
				Root: cfg.Root, Parallel: workers(), Stats: st, ClusterName: "table1",
			})
			return err
		})
		stop()
		if tr != nil {
			utils = append(utils, util)
		}
		if err != nil {
			return err
		}
		if f := out.res.Outcome.Failed(); f > 0 {
			return fmt.Errorf("tune: %d validation task(s) failed", f)
		}
		for _, c := range out.res.Cells {
			for _, s := range c.Ranked {
				out.simVirtual += s.SimulatedS
			}
		}
		outs = append(outs, out)
		return nil
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
			return fmt.Errorf("every traced tune iteration failed")
		}
		b.overhead(ref.secs, traced.secs)
		b.spanLayers(setupIters)
		b.setLayer("autotune.tune_s", medianSelf(b.tr.selfByIter(), "autotune.tune", tracedIters))
		b.estimateLayer(setupReports, &setupReports[0])
		o := outs[start]
		b.setLayer("autotune.candidates", float64(o.res.Candidates))
		b.setLayer("autotune.simulated", float64(o.res.Simulated))
		b.setLayer("campaign.tasks", float64(len(o.res.Outcome.Results)))
		b.setLayer("campaign.failed", float64(o.res.Outcome.Failed()))
		b.setLayer("campaign.utilization", median(utils))
		if err := b.timeModels(lmo); err != nil {
			return err
		}
	}
	if len(outs) == 0 {
		return fmt.Errorf("every tune iteration failed")
	}

	first := outs[0]
	fp := first.fingerprint()
	same := true
	for _, o := range outs[1:] {
		same = same && o.fingerprint() == fp
	}
	b.check(same, "all %d tune iterations of this run give identical cells", len(outs))
	b.check(first.res.Agreement >= minAgreement, "tune agreement %.3f is at least %.1f", first.res.Agreement, minAgreement)
	inRegion, segWins := 0, 0
	g := lmo.Gather
	for _, c := range first.res.Cells {
		if c.Op != tuned.OpGather || c.M <= g.M1 || c.M >= g.M2 {
			continue
		}
		inRegion++
		if w := c.Winner.Candidate; w.Alg == mpi.Linear && w.Segment > 0 {
			segWins++
		}
	}
	b.check(g.Valid() && segWins > 0,
		"a segmented linear gather wins inside the irregular region: %d of the %d gather cells (M1=%d B, M2=%d B)",
		segWins, inRegion, g.M1, g.M2)

	b.perIteration(ref)
	b.metric("sim_virtual_s", first.simVirtual)
	b.metric("tune_agree_pct", 100*first.res.Agreement)
	b.exact("sim_virtual_s", first.simVirtual)
	b.exact("tune_agree_pct", 100*first.res.Agreement)
	b.exact("autotune.simulated", first.res.Simulated)
	b.exact("estimate.experiments", setupReports[0].Experiments+setupReports[1].Experiments)
	b.peakRSS()
	return b.replayGather(cfg)
}

// sampleUtilization, when on, samples the campaign pool's busy share
// every millisecond until the returned stop function is called, and
// stores the mean over the samples taken while tasks were pending.
func sampleUtilization(on bool, st *campaign.Stats, mean *float64) (stop func()) {
	if !on {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		sum, n := 0.0, 0
		for {
			select {
			case <-done:
				if n > 0 {
					*mean = sum / float64(n)
				}
				return
			case <-tick.C:
				s := st.Snapshot()
				if s.Workers > 0 && s.Done < s.Total {
					sum += s.Utilization()
					n++
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

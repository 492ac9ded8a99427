package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/estimate"
	"repro/internal/experiment"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/mpib"
)

// estimateLayer records the estimate and mpib counts of one traced
// iteration's estimation reports. lmox, when non-nil, is the LMOX
// report whose dropped experiments define kept_ratio.
func (b *bench) estimateLayer(reps []estimate.Report, lmox *estimate.Report) {
	var exps, repetitions, retries, nonconv int
	var cost time.Duration
	for _, r := range reps {
		exps += r.Experiments
		repetitions += r.Repetitions
		retries += r.Retries
		nonconv += r.NonConverged
		cost += r.Cost
	}
	b.setLayer("estimate.experiments", float64(exps))
	b.setLayer("estimate.virtual_s", cost.Seconds())
	b.setLayer("mpib.repetitions", float64(repetitions))
	b.setLayer("mpib.retries", float64(retries))
	b.setLayer("mpib.nonconverged", float64(nonconv))
	if lmox != nil && lmox.Experiments > 0 {
		b.setLayer("estimate.kept_ratio", float64(lmox.Experiments-len(lmox.Dropped))/float64(lmox.Experiments))
	}
}

// spanLayers records the span-derived per-layer times of the traced
// iterations.
func (b *bench) spanLayers(iters []int) {
	self := b.tr.selfByIter()
	for metric, span := range map[string]string{
		"estimate.lmox_s":       "estimate.lmox",
		"estimate.irrscan_s":    "estimate.irrscan",
		"estimate.hethockney_s": "estimate.hethockney",
		"estimate.busy_s":       "estimate.",
		"experiment.observe_s":  "experiment.observe",
	} {
		b.setLayer(metric, medianSelf(self, span, iters))
	}
}

// replayGather re-runs fig5's linear-gather observation sweep (the
// sizes, repetitions and max-timing of experiment.Observe) through
// mpi.Run and mpib.Measure directly, so the mpi and simnet layers can
// be read: Result.Net carries the simulator's traffic counters. The
// replayed means must equal experiment.Observe's. It runs after the
// timed phase in both runs; the traced run also records its layers.
func (b *bench) replayGather(cfg experiment.Config) error {
	mc := mpi.Config{Cluster: cfg.Cluster, Profile: cfg.Profile, Seed: cfg.Seed}
	means := make([]float64, len(cfg.Sizes))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	id := b.tr.begin("mpi.gather", 0, -1)
	res, err := mpi.Run(mc, func(r *mpi.Rank) {
		for si, m := range cfg.Sizes {
			block := make([]byte, m)
			meas := mpib.Measure(r, cfg.Root, mpib.MaxTiming,
				mpib.Options{MinReps: cfg.ObsReps, MaxReps: cfg.ObsReps},
				func() { r.Gather(mpi.Linear, cfg.Root, block) })
			if r.Rank() == 0 {
				means[si] = meas.Mean
			}
		}
	})
	b.tr.end(id)
	secs := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("gather replay: %w", err)
	}
	obs, err := experiment.Observe(cfg, experiment.Gather, mpi.Linear)
	if err != nil {
		return fmt.Errorf("gather observation: %w", err)
	}
	same := len(obs.Mean) == len(means)
	for i := range means {
		same = same && means[i] == obs.Mean[i]
	}
	b.check(same, "gather replay through mpi.Run+mpib.Measure equals experiment.Observe on %d sizes", len(means))

	net := res.Net
	b.exact("simnet.messages", net.Messages)
	b.exact("simnet.bytes", net.Bytes)
	b.exact("simnet.escalations", net.Escalations)
	b.exact("simnet.serialized", net.Serialized)
	b.exact("mpi.gather_virtual_s", res.Duration.Seconds())
	b.setLayer("mpi.gather_s", secs)
	b.setLayer("simnet.messages", float64(net.Messages))
	b.setLayer("simnet.bytes", float64(net.Bytes))
	b.setLayer("simnet.escalations", float64(net.Escalations))
	b.setLayer("simnet.serialized", float64(net.Serialized))
	if net.Bytes > 0 {
		b.setLayer("mpi.host_bytes_per_sim_byte", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(net.Bytes))
	}
	return nil
}

// querySizes are serve's hit sizes for a model: either side of the
// gather irregularity thresholds M1 and M2 when the model has them,
// else the figures' sweep.
func querySizes(lmo *models.LMOX) []int {
	if g := lmo.Gather; g.Valid() {
		return []int{g.M1 / 2, g.M1, 2 * g.M1, g.M2 / 2, g.M2, 2 * g.M2}
	}
	return experiment.DefaultSizes()
}

// predictSink keeps the timed predictions from being optimized away.
var predictSink float64

// timeModels times models.CollectivePredictor.Predict on the LMO model
// over serve's query mix (scatter and gather at querySizes, root 0),
// once with linear and once with binomial trees, and counts the heap
// allocations of a binomial prediction.
func (b *bench) timeModels(lmo *models.LMOX) error {
	sizes := querySizes(lmo)
	for _, alg := range []collective.Alg{collective.AlgLinear, collective.AlgBinomial} {
		var qs []models.Query
		for _, coll := range []models.Collective{models.CollScatter, models.CollGather} {
			for _, m := range sizes {
				qs = append(qs, models.Query{Coll: coll, Alg: alg, N: lmo.N(), M: m})
			}
		}
		for _, q := range qs {
			if _, err := lmo.Predict(q); err != nil {
				return fmt.Errorf("models: %v", err)
			}
		}
		const minTime = 50 * time.Millisecond
		calls := 0
		start := time.Now()
		for time.Since(start) < minTime {
			for _, q := range qs {
				predictSink, _ = lmo.Predict(q) // every query was answered above
				calls++
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(calls)
		if alg == collective.AlgLinear {
			b.setLayer("models.predict_ns.linear", ns)
			continue
		}
		b.setLayer("models.predict_ns.binomial", ns)
		const allocRounds = 100
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < allocRounds; i++ {
			for _, q := range qs {
				predictSink, _ = lmo.Predict(q)
			}
		}
		runtime.ReadMemStats(&m1)
		b.setLayer("models.predict_allocs.binomial", float64(m1.Mallocs-m0.Mallocs)/float64(allocRounds*len(qs)))
	}
	return nil
}

// paramErrPct is the mean |relative error| of an estimated LMO model's
// C_i, t_i, L_ij and β_ij against the cluster's ground truth, in
// percent.
func paramErrPct(lmo *models.LMOX, cl *cluster.Cluster) float64 {
	sum, n := 0.0, 0
	add := func(est, truth float64) {
		sum += math.Abs(est-truth) / truth
		n++
	}
	for i, node := range cl.Nodes {
		add(lmo.C[i], node.C.Seconds())
		add(lmo.T[i], node.T)
		for j := range cl.Nodes {
			if i != j {
				add(lmo.L[i][j], cl.Links[i][j].L.Seconds())
				add(lmo.Beta[i][j], cl.Links[i][j].Beta)
			}
		}
	}
	return 100 * sum / float64(n)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// The serve workload's traffic, fixed by request position: every
// batchEvery-th request is a batchRows-row batch, the rest unary cache
// hits; in the write phase, every missEvery-th request (offset by half)
// is a unary request for a cold key instead.
//
// One batch per 64 requests keeps unary hits at about three quarters
// of the hit phase's client time, so hit latency stays the phase's
// main term while batches carry about four fifths of its predictions.
// Cold keys are kept out of the hit phase: on the 2-vCPU reference VM
// a 4-node miss allocates about 750 MB, as much as 12,000 hits and
// batches of the mix, so even one miss per 8,192 requests took 60% of
// the heap bytes and 23% of the clients' time of a mixed phase. In the
// write phase one miss per 8,192 requests is one every ~1.5 s of loop
// there: misses (~0.6 s each) do not overlap, and the other client
// keeps reading beside each one. README.md records the measured
// shares.
const (
	batchEvery     = 64
	batchRows      = 256
	missEvery      = 8192
	missEverySmall = 512
	missNodes      = 4 // cold keys are 4-node prefixes of Table I
)

// Request kinds of the serve mix.
const (
	kindHit = iota
	kindBatch
	kindMiss
)

var kindNames = [...]string{"serve.hit", "serve.batch", "serve.miss"}

// shape is one collective query of the hit mix.
type shape struct {
	Op  string `json:"op"`
	Alg string `json:"alg,omitempty"`
	M   int    `json:"m"`
}

// predictBody is a /predict request body; unset fields take the
// service defaults.
type predictBody struct {
	Cluster string  `json:"cluster"`
	Nodes   int     `json:"nodes"`
	Profile string  `json:"profile"`
	Seed    int64   `json:"seed"`
	Op      string  `json:"op,omitempty"`
	Alg     string  `json:"alg,omitempty"`
	M       int     `json:"m,omitempty"`
	Queries []shape `json:"queries,omitempty"`
}

// predictReply is the part of a unary /predict reply, or of one batch
// item, that the checks read.
type predictReply struct {
	Cache       string             `json:"cache"`
	Op          string             `json:"op"`
	Alg         string             `json:"alg"`
	M           int                `json:"m"`
	Nodes       int                `json:"nodes"`
	Root        int                `json:"root"`
	Predictions map[string]float64 `json:"predictions"`
	Code        string             `json:"code"`
}

// batchReply is a batch /predict reply.
type batchReply struct {
	Errors  int            `json:"errors"`
	Results []predictReply `json:"results"`
}

// serveMetrics is the part of GET /metrics?format=json the per-layer
// metrics read.
type serveMetrics struct {
	Requests map[string]struct {
		Count  int64   `json:"count"`
		MeanMs float64 `json:"mean_ms"`
	} `json:"requests"`
	Cache     serve.CacheStats `json:"cache"`
	Admission struct {
		Shed int64 `json:"shed"`
	} `json:"admission"`
}

// collectivePredictor is the prediction surface of every model family
// a registry entry holds.
type collectivePredictor interface {
	ScatterLinear(root, n, m int) float64
	ScatterBinomial(root, n, m int) float64
	GatherLinear(root, n, m int) float64
	GatherBinomial(root, n, m int) float64
}

// family is one model family of a registry entry, under its reply name.
type family struct {
	name string
	p    collectivePredictor
}

// families lists the entry's model families in the reply's order.
func families(e *serve.Entry) []family {
	var out []family
	add := func(name string, ok bool, p collectivePredictor) {
		if ok {
			out = append(out, family{name, p})
		}
	}
	add("hockney", e.Hom != nil, e.Hom)
	add("het-hockney", e.Het != nil, e.Het)
	add("logp", e.LogP != nil, e.LogP)
	add("loggp", e.LogGP != nil, e.LogGP)
	add("plogp", e.PLogP != nil, e.PLogP)
	add("lmo", e.LMO != nil, e.LMO)
	return out
}

// inProcess is the prediction the reply must carry for one family.
func inProcess(p collectivePredictor, op, alg string, root, n, m int) float64 {
	switch {
	case op == "scatter" && alg == "binomial":
		return p.ScatterBinomial(root, n, m)
	case op == "scatter":
		return p.ScatterLinear(root, n, m)
	case alg == "binomial":
		return p.GatherBinomial(root, n, m)
	default:
		return p.GatherLinear(root, n, m)
	}
}

// verify checks one reply against an in-process prediction on the same
// registry entry.
func verify(r predictReply, e *serve.Entry, cache string) error {
	if r.Cache != cache {
		return fmt.Errorf("%s %s m=%d: cache %q, want %q (code %q)", r.Op, r.Alg, r.M, r.Cache, cache, r.Code)
	}
	fams := families(e)
	if len(r.Predictions) != len(fams) {
		return fmt.Errorf("%s %s m=%d: %d predictions, entry holds %d models", r.Op, r.Alg, r.M, len(r.Predictions), len(fams))
	}
	for _, f := range fams {
		got, ok := r.Predictions[f.name]
		want := inProcess(f.p, r.Op, r.Alg, r.Root, r.Nodes, r.M)
		if !ok || got != want {
			return fmt.Errorf("%s %s m=%d: %s predicted %v over HTTP, %v in process", r.Op, r.Alg, r.M, f.name, got, want)
		}
	}
	return nil
}

// server is one in-process lmoserve listening on loopback.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

func startServer(ctx context.Context) (*server, error) {
	srv, err := serve.New(ctx, serve.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    srv,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener and the service and waits for both.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// post sends one /predict request and returns the status and body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// serveLoad is the outcome of one closed-loop phase.
type serveLoad struct {
	all, hit, batch, miss []float64 // request latencies, seconds
	requests              int
	predictions           int
	failed                int
	firstErr              error
	wall                  float64
	mallocs, bytes        uint64
}

// serveRun is the workload's fixed state: the warmed server, its hit
// entry, and the pre-encoded request bodies.
type serveRun struct {
	s         *server
	client    *http.Client
	hitEntry  *serve.Entry
	hitBodies [][]byte // one per shape, in seed order
	batches   [][]byte // one per starting offset into the shapes
	plat      predictBody
	missEvery int64
}

// missBody is the request body of the j-th cold-key request.
func (r *serveRun) missBody(j int64) predictBody {
	b := r.plat
	b.Nodes = missNodes
	b.Seed = r.plat.Seed*1000003 + 1 + j
	b.Op, b.Alg, b.M = "gather", "linear", 1024
	return b
}

// kindOf returns the request kind at position i of the mix, with
// cold-key misses only in the write phase.
func (r *serveRun) kindOf(i int64, writes bool) int {
	switch {
	case writes && i%r.missEvery == r.missEvery/2:
		return kindMiss
	case i%batchEvery == batchEvery/2:
		return kindBatch
	}
	return kindHit
}

// do sends request i of the mix and checks the reply. It returns the
// request's kind, latency and prediction count.
func (r *serveRun) do(tr *tracer, i int64, writes bool) (int, float64, int, error) {
	kind := r.kindOf(i, writes)
	var body []byte
	var miss predictBody
	switch kind {
	case kindHit:
		body = r.hitBodies[i%int64(len(r.hitBodies))]
	case kindBatch:
		body = r.batches[(i/batchEvery)%int64(len(r.batches))]
	default:
		miss = r.missBody(i / r.missEvery)
		var err error
		if body, err = json.Marshal(miss); err != nil {
			return kind, 0, 0, err
		}
	}
	id := tr.begin(kindNames[kind], 0, int(i))
	t0 := time.Now()
	status, data, err := post(r.client, r.s.url, body)
	lat := time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return kind, lat, 0, err
	}
	if status != http.StatusOK {
		return kind, lat, 0, fmt.Errorf("%s: HTTP %d: %s", kindNames[kind], status, bytes.TrimSpace(data))
	}
	switch kind {
	case kindBatch:
		var br batchReply
		if err := json.Unmarshal(data, &br); err != nil {
			return kind, lat, 0, err
		}
		if br.Errors != 0 || len(br.Results) != batchRows {
			return kind, lat, 0, fmt.Errorf("batch: %d rows, %d errors", len(br.Results), br.Errors)
		}
		for _, item := range br.Results {
			if err := verify(item, r.hitEntry, "hit"); err != nil {
				return kind, lat, 0, err
			}
		}
		return kind, lat, batchRows, nil
	default:
		var pr predictReply
		if err := json.Unmarshal(data, &pr); err != nil {
			return kind, lat, 0, err
		}
		entry, cache := r.hitEntry, "hit"
		if kind == kindMiss {
			cache = "estimated"
			key := r.hitEntry.Key
			key.Nodes, key.Seed = miss.Nodes, miss.Seed
			var ok bool
			if entry, ok = r.s.srv.Registry().Lookup(key); !ok {
				return kind, lat, 0, fmt.Errorf("miss: key %s not in the registry after estimation", key)
			}
		}
		return kind, lat, 1, verify(pr, entry, cache)
	}
}

// load drives the closed loop: workers() clients, each sending its
// next request only after the previous reply, until d has passed and,
// in the write phase, at least one cold-key request has been made.
func (r *serveRun) load(tr *tracer, d time.Duration, next *atomic.Int64, writes bool) serveLoad {
	var out serveLoad
	var mu sync.Mutex
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	deadline := start.Add(d)
	floor := next.Load()
	if writes {
		floor += r.missEvery
	}
	for c := 0; c < workers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine serveLoad
			for {
				i := next.Add(1) - 1
				if i >= floor && time.Now().After(deadline) {
					break
				}
				kind, lat, preds, err := r.do(tr, i, writes)
				mine.requests++
				mine.all = append(mine.all, lat)
				switch kind {
				case kindHit:
					mine.hit = append(mine.hit, lat)
				case kindBatch:
					mine.batch = append(mine.batch, lat)
				default:
					mine.miss = append(mine.miss, lat)
				}
				mine.predictions += preds
				if err != nil {
					mine.failed++
					if mine.firstErr == nil {
						mine.firstErr = err
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			out.all = append(out.all, mine.all...)
			out.hit = append(out.hit, mine.hit...)
			out.batch = append(out.batch, mine.batch...)
			out.miss = append(out.miss, mine.miss...)
			out.requests += mine.requests
			out.predictions += mine.predictions
			out.failed += mine.failed
			if out.firstErr == nil {
				out.firstErr = mine.firstErr
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	out.mallocs, out.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return out
}

// kindBytes sends n requests of one kind, one at a time, at the mix
// positions from next on, and returns their heap bytes per request.
func (r *serveRun) kindBytes(kind, n int, next *atomic.Int64) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for sent := 0; sent < n; {
		i := next.Add(1) - 1
		if r.kindOf(i, true) != kind {
			continue
		}
		if _, _, _, err := r.do(nil, i, true); err != nil {
			return 0, err
		}
		sent++
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n), nil
}

// kindCosts measures each request kind's heap bytes per request,
// sending a few of each, one at a time, after the measured phases. A
// failed request is counted and leaves ok false.
func (b *bench) kindCosts(r *serveRun, next *atomic.Int64) (per [len(kindNames)]float64, ok bool) {
	sent := [...]int{kindHit: 256, kindBatch: 8, kindMiss: 1}
	for k := range per {
		var err error
		per[k], err = r.kindBytes(k, sent[k], next)
		b.op(err)
		if err != nil {
			return per, false
		}
	}
	return per, true
}

// mixShares prints each request kind's share of a closed-loop phase:
// of the clients' time (the kind's summed latencies) and of the heap
// bytes (the kind's count times its bytes per request).
func (b *bench) mixShares(phase string, l serveLoad, per [len(kindNames)]float64) {
	lats := [...][]float64{kindHit: l.hit, kindBatch: l.batch, kindMiss: l.miss}
	var secs, bytes [len(lats)]float64
	var secsAll, bytesAll float64
	for k := range lats {
		for _, lat := range lats[k] {
			secs[k] += lat
		}
		bytes[k] = per[k] * float64(len(lats[k]))
		secsAll += secs[k]
		bytesAll += bytes[k]
	}
	for k := range lats {
		if len(lats[k]) == 0 {
			continue
		}
		fmt.Fprintf(b.w, "info %s phase %s: %d requests, %.1f%% of client time, %.1f%% of heap bytes (%.0f B per request)\n",
			phase, kindNames[k], len(lats[k]), 100*secs[k]/secsAll, 100*bytes[k]/bytesAll, per[k])
	}
}

// record counts a phase's requests as operations.
func (b *bench) record(l serveLoad) {
	b.attempted += l.requests
	b.failed += l.failed
	if l.firstErr != nil {
		fmt.Fprintf(b.w, "error %d of %d requests failed; first: %v\n", l.failed, l.requests, l.firstErr)
	}
}

// metricsSnapshot reads GET /metrics?format=json.
func (r *serveRun) metricsSnapshot() (serveMetrics, error) {
	var m serveMetrics
	resp, err := r.client.Get(r.s.url + "/metrics?format=json")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// runServe is the serve workload: an in-process lmoserve on loopback
// HTTP under a closed loop of at most two clients. Set-up starts the
// server and warms the hit key (a 16-node Table I model estimation
// through the /predict miss path).
func runServe(b *bench) error {
	seed := b.opt.seed
	if seed == 0 {
		seed = 1 // the service's default seed; keep keys explicit
	}
	plat := predictBody{Cluster: "table1", Nodes: 16, Profile: "lam", Seed: seed}
	missEveryN := int64(missEvery)
	if b.opt.small {
		plat.Nodes = missNodes
		missEveryN = missEverySmall
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers(), DisableCompression: true}}
	defer client.CloseIdleConnections()

	var servers []*server
	closeAll := func() error {
		var first error
		for _, s := range servers {
			if err := s.close(); err != nil && first == nil {
				first = err
			}
		}
		servers = nil
		return first
	}
	defer closeAll()
	err := b.setup(func(int) error {
		s, err := startServer(ctx)
		if err != nil {
			return err
		}
		servers = append(servers, s)
		warm := plat
		warm.Op, warm.Alg, warm.M = "gather", "linear", 1024
		body, err := json.Marshal(warm)
		if err != nil {
			return err
		}
		status, data, err := post(client, s.url, body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warming the hit key: HTTP %d: %s", status, bytes.TrimSpace(data))
		}
		return nil
	})
	if err != nil {
		return err
	}
	s := servers[len(servers)-1]
	servers = servers[:len(servers)-1]
	if err := closeAll(); err != nil {
		return err
	}
	servers = []*server{s}
	entries := s.srv.Registry().Entries()
	if len(entries) != 1 {
		return fmt.Errorf("warm registry holds %d entries, want 1", len(entries))
	}

	r := &serveRun{s: s, client: client, hitEntry: entries[0], plat: plat, missEvery: missEveryN}
	var shapes []shape
	for _, op := range []string{"scatter", "gather"} {
		for _, alg := range []string{"linear", "binomial"} {
			for _, m := range querySizes(r.hitEntry.LMO) {
				shapes = append(shapes, shape{Op: op, Alg: alg, M: m})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	for k, sh := range shapes {
		hit := plat
		hit.Op, hit.Alg, hit.M = sh.Op, sh.Alg, sh.M
		body, err := json.Marshal(hit)
		if err != nil {
			return err
		}
		r.hitBodies = append(r.hitBodies, body)
		batch := plat
		for row := 0; row < batchRows; row++ {
			batch.Queries = append(batch.Queries, shapes[(k+row)%len(shapes)])
		}
		if body, err = json.Marshal(batch); err != nil {
			return err
		}
		r.batches = append(r.batches, body)
	}

	sum := 0.0
	for _, sh := range shapes {
		for _, f := range families(r.hitEntry) {
			sum += inProcess(f.p, sh.Op, sh.Alg, 0, r.hitEntry.Key.Nodes, sh.M)
		}
	}
	b.exact("serve.hit_key", r.hitEntry.Key)
	b.exact("serve.gather_M1", r.hitEntry.LMO.Gather.M1)
	b.exact("serve.gather_M2", r.hitEntry.LMO.Gather.M2)
	b.exact("serve.hit_prediction_sum_s", sum)

	// Each round is a hit phase (three quarters of the round) and a
	// write phase. The end-to-end metrics come from the untraced
	// round's hit phase, miss_p50_ms from its write phase.
	var next atomic.Int64
	hitD := b.phaseLength() * 3 / 4
	writeD := b.phaseLength() - hitD
	ref := r.load(nil, hitD, &next, false)
	refW := r.load(nil, writeD, &next, true)
	b.record(ref)
	b.record(refW)
	if b.tr != nil {
		before, err := r.metricsSnapshot()
		if err != nil {
			return err
		}
		traced := r.load(b.tr, hitD, &next, false)
		mid, err := r.metricsSnapshot()
		if err != nil {
			return err
		}
		b.record(traced)
		b.record(r.load(b.tr, writeD, &next, true))
		after, err := r.metricsSnapshot()
		if err != nil {
			return err
		}
		if err := b.profiled(func() {
			b.record(r.load(nil, hitD, &next, false))
			b.record(r.load(nil, writeD, &next, true))
		}); err != nil {
			return err
		}
		b.overhead(ref.all, traced.all)
		// The server's mean is the hit phase's: the hit path.
		pb, pm := before.Requests["predict"], mid.Requests["predict"]
		if n := pm.Count - pb.Count; n > 0 {
			b.setLayer("serve.server_mean_ms", (pm.MeanMs*float64(pm.Count)-pb.MeanMs*float64(pb.Count))/float64(n))
		}
		b.setLayer("serve.cache_hits", float64(after.Cache.Hits-before.Cache.Hits))
		b.setLayer("serve.cache_misses", float64(after.Cache.Misses-before.Cache.Misses))
		b.setLayer("serve.estimations", float64(after.Cache.Estimations-before.Cache.Estimations))
		b.setLayer("serve.swaps", float64(after.Cache.Swaps-before.Cache.Swaps))
		b.setLayer("serve.shed", float64(after.Admission.Shed-before.Admission.Shed))
		// Every estimation on the miss path is a one-task campaign.
		b.setLayer("campaign.tasks", float64(after.Cache.Estimations-before.Cache.Estimations))
		b.setLayer("serve.registry_lookup_ns", timeLookups(s.srv.Registry(), r.hitEntry.Key))
		if err := b.timeModels(r.hitEntry.LMO); err != nil {
			return err
		}
	}

	b.peakRSS()
	if per, ok := b.kindCosts(r, &next); ok {
		b.mixShares("hit", ref, per)
		b.mixShares("write", refW, per)
	}
	b.check(len(refW.miss) > 0, "the write phase made %d cold-key requests", len(refW.miss))
	b.check(ref.failed+refW.failed == 0, "every reply of %d requests was 200 and equals in-process predictions on the same registry entry",
		ref.requests+refW.requests)
	b.timing("iter_s", ref.all, 1)
	perK := 1000 / float64(ref.requests)
	b.metric("alloc_mb", float64(ref.bytes)*perK/1e6)
	b.metric("allocs_k", float64(ref.mallocs)*perK/1e3)
	b.metric("predictions_per_s", float64(ref.predictions)/ref.wall)
	b.timing("hit_p50_ms", ref.hit, 1e3)
	b.metric("hit_p99_ms", 1e3*percentile(ref.hit, 99))
	fmt.Fprintf(b.w, "info serve hit_p99_ms over %d hits (%d beyond p99)\n", len(ref.hit), len(ref.hit)/100)
	b.timing("miss_p50_ms", refW.miss, 1e3)
	fmt.Fprintf(b.w, "info serve write phase: unary hit p50 %.4g ms, p99 %.4g ms beside the cold-key misses\n",
		1e3*median(refW.hit), 1e3*percentile(refW.hit, 99))
	fmt.Fprintf(b.w, "info serve hit phase %d requests: %d hits, %d batches of %d rows; write phase %d requests, %d cold keys; %d clients\n",
		ref.requests, len(ref.hit), len(ref.batch), batchRows, refW.requests, len(refW.miss), workers())
	return nil
}

// timeLookups times Registry.Lookup of a cached key, in ns per call.
func timeLookups(reg *serve.Registry, key serve.Key) float64 {
	const minTime = 50 * time.Millisecond
	calls := 0
	start := time.Now()
	for time.Since(start) < minTime {
		for k := 0; k < 1000; k++ {
			reg.Lookup(key)
		}
		calls += 1000
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

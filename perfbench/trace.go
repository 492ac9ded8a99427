package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer: its name, its host-time
// interval since the tracer started, the span that caused it (0 for a
// root) and the iteration (or request) it belongs to.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Iter   int     `json:"iter"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps the traced run's spans in memory; write saves them when
// the run ends. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, iter int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Iter: iter, Start: now})
	return len(t.spans)
}

// end closes the span with the given id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// call runs fn inside a span.
func (t *tracer) call(name string, parent, iter int, fn func() error) error {
	id := t.begin(name, parent, iter)
	defer t.end(id)
	return fn()
}

// selfByIter returns, for every span name, the self time (duration
// minus the part of it its child spans cover) summed per iteration.
func (t *tracer) selfByIter() map[string]map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]map[int]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(children[s.ID])
		if out[s.Name] == nil {
			out[s.Name] = map[int]float64{}
		}
		out[s.Name][s.Iter] += self
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, lo, hi := 0.0, 0.0, -1.0
	for _, s := range spans {
		if s.Start > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}

// medianSelf returns the median over iterations of the summed self
// time of every span whose name matches (exactly, or by prefix when
// name ends in "."). Iterations without such a span count as 0 when
// iters lists them.
func medianSelf(self map[string]map[int]float64, name string, iters []int) float64 {
	per := map[int]float64{}
	for n, byIter := range self {
		if n != name && !(strings.HasSuffix(name, ".") && strings.HasPrefix(n, name)) {
			continue
		}
		for it, v := range byIter {
			per[it] += v
		}
	}
	var xs []float64
	for _, it := range iters {
		xs = append(xs, per[it])
	}
	return median(xs)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

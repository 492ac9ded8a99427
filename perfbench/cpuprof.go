package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// cpuProfile collects a CPU profile of the traced phase in memory.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// profiled runs fn under the CPU profiler, saves the profile for
// `go tool pprof`, and records every cpu.* layer share.
func (b *bench) profiled(fn func()) error {
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	fn()
	shares, err := prof.stop(b.outPath("cpu", "pprof"))
	if err != nil {
		return err
	}
	for name, v := range shares {
		b.setLayer(name, v)
	}
	return nil
}

// stop ends the profile, saves it for `go tool pprof`, and returns
// every layer's self share of the CPU samples, in percent.
func (p *cpuProfile) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	stacks, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	return layerShares(stacks), nil
}

// layerPackages maps the repository's packages to their cpu.* metric.
var layerPackages = map[string]string{
	"repro/internal/vtime":    "cpu.vtime",
	"repro/internal/simnet":   "cpu.simnet",
	"repro/internal/mpi":      "cpu.mpi",
	"repro/internal/mpib":     "cpu.mpib",
	"repro/internal/estimate": "cpu.estimate",
	"repro/internal/models":   "cpu.models",
	"repro/internal/serve":    "cpu.serve",
}

// gcRoots are runtime functions under which all work is garbage
// collection.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain",
}

// layerShares attributes each sample to one bucket, in this order: GC
// work (any frame under a GC root), memory copying and clearing (leaf
// runtime.memmove or runtime.memclr*), else the package of the leaf
// function. It returns each cpu.* bucket's share in percent.
func layerShares(stacks []sample) map[string]float64 {
	total := 0.0
	acc := map[string]float64{}
	for _, s := range stacks {
		total += s.weight
		if len(s.funcs) == 0 {
			continue
		}
		acc[bucket(s.funcs)] += s.weight
	}
	out := map[string]float64{}
	for _, name := range layerPackages {
		out[name] = 0
	}
	out["cpu.runtime_gc"], out["cpu.runtime_memmove"] = 0, 0
	if total == 0 {
		return out
	}
	for name, w := range acc {
		if _, ok := out[name]; ok {
			out[name] = 100 * w / total
		}
	}
	return out
}

// bucket names the cpu.* bucket of one stack (leaf first).
func bucket(funcs []string) string {
	for _, f := range funcs {
		for _, root := range gcRoots {
			if f == root {
				return "cpu.runtime_gc"
			}
		}
	}
	leaf := funcs[0]
	if leaf == "runtime.memmove" || strings.HasPrefix(leaf, "runtime.memclr") {
		return "cpu.runtime_memmove"
	}
	if name, ok := layerPackages[funcPackage(leaf)]; ok {
		return name
	}
	return "other"
}

// funcPackage returns the import path of a symbol name such as
// "repro/internal/simnet.(*Network).Send".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// sample is one profile sample: its stack as function names (leaf
// first, inlined frames expanded) and its weight (CPU nanoseconds).
type sample struct {
	funcs  []string
	weight float64
}

// decodeProfile reads the gzipped profile.proto that runtime/pprof
// writes, keeping only what layerShares needs: samples, locations,
// functions and the string table.
func decodeProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]int64{}    // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[len(s.values)-1])
		var funcs []string
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
					funcs = append(funcs, strs[i])
				}
			}
		}
		out = append(out, sample{funcs: funcs, weight: w})
	}
	return out, nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

// eachField walks the fields of one protobuf message, passing varints
// in v and length-delimited payloads in b.
func eachField(msg []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

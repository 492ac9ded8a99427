package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// smoke test compares against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatalf("decoding BENCHMARK.json: %v", err)
	}
	return spec
}

// runOnce runs one small-scale workload in process and returns its
// output lines and decoded JSON result.
func runOnce(t *testing.T, workload, seed, trace string) ([]string, map[string]json.RawMessage) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace,
		"--scale", "small", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s seed %s trace %s: exit %d\n%s%s", workload, seed, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	return lines, res
}

// checkResult verifies the JSON line's keys and its metric names and
// units against want.
func checkResult(t *testing.T, label string, res map[string]json.RawMessage, want map[string]string) {
	t.Helper()
	var keys []string
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Fatalf("%s: result keys %v", label, keys)
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]metricValue
	for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		if err := json.Unmarshal(res[k], dst); err != nil {
			t.Fatalf("%s: decoding %s: %v", label, k, err)
		}
	}
	if !correct || attempted < 1 || failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", label, correct, attempted, failed)
	}
	if len(metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(metrics), len(want))
	}
	for name, unit := range want {
		m, ok := metrics[name]
		if !ok || m.Unit != unit {
			t.Errorf("%s: metric %s = %+v, want unit %q", label, name, m, unit)
		}
	}
}

// prefixed returns the lines starting with prefix, sorted.
func prefixed(lines []string, prefix string) []string {
	var out []string
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at its smallest size on two seeds,
// untraced and traced. Each run must pass its output checks, print
// every named end-to-end metric with its unit, and end with the JSON
// line BENCHMARK.json describes; the two runs of a seed must report
// identical exact counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	e2e := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	for _, w := range names {
		for _, seed := range []string{"1", "2"} {
			label := w + " seed " + seed
			plain, res := runOnce(t, w, seed, "0")
			checkResult(t, label+" untraced", res, e2e)
			for _, name := range namedEndToEnd[w] {
				if len(prefixed(plain, "metric "+name+" ")) != 1 {
					t.Errorf("%s: no line for end-to-end metric %s", label, name)
				}
				for _, l := range prefixed(plain, "metric "+name+" ") {
					if !strings.HasSuffix(l, " "+e2eUnits[name]) {
						t.Errorf("%s: %q lacks unit %s", label, l, e2eUnits[name])
					}
				}
			}
			traced, res := runOnce(t, w, seed, "1")
			checkResult(t, label+" traced", res, layers)
			a, b := prefixed(plain, "exact "), prefixed(traced, "exact ")
			if len(a) == 0 || strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Errorf("%s: exact counts differ between untraced and traced runs:\n%s\n--\n%s",
					label, strings.Join(a, "\n"), strings.Join(b, "\n"))
			}
		}
	}
}

// TestUnitsCoverMetrics keeps the metric tables consistent.
func TestUnitsCoverMetrics(t *testing.T) {
	for w, names := range namedEndToEnd {
		for _, name := range names {
			if e2eUnits[name] == "" {
				t.Errorf("%s: metric %s has no unit", w, name)
			}
		}
	}
	for _, name := range endToEnd {
		for w, names := range namedEndToEnd {
			found := false
			for _, n := range names {
				found = found || n == name
			}
			if !found {
				t.Errorf("JSON end-to-end metric %s is not printed by %s", name, w)
			}
		}
	}
}

// TestLintClean runs go vet on this module and lmovet on this package
// (from the repository root), and rejects lmovet directives in this
// package.
func TestLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the lint tools")
	}
	if out, err := exec.Command("go", "vet", "./...").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
	cmd := exec.Command("go", "run", "./cmd/lmovet", "./perfbench/...")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("lmovet: %v\n%s", err, out)
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("//"+"lmovet:")) {
			t.Errorf("%s carries an lmovet directive", f)
		}
	}
}

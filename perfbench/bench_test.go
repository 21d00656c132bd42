package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// tinySeconds sizes test runs at the op-count floors.
const tinySeconds = 0.01

func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func defsMap(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	if got := defsMap(endToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json has %v", got, e2e)
	}
	if got := defsMap(perLayer); !reflect.DeepEqual(got, layers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json has %v", got, layers)
	}
}

// TestTinyRunsEmitExactNames runs every workload untraced and traced at
// the smallest size and checks the result carries exactly the metrics
// BENCHMARK.json names, each measured.
func TestTinyRunsEmitExactNames(t *testing.T) {
	e2e, layers := benchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: tinySeconds, dir: t.TempDir()}
			res, out, err := benchmark(cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			want := e2e
			if traced {
				want = layers
			}
			got := map[string]string{}
			for n, m := range res.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w, traced, keys(got), keys(want))
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d problems=%v", w, traced, res.Correct, res.Attempted, out.problems)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.dir, "traces", w+"-seed7.json")); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
}

func keys(m map[string]string) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestCorruptedFileCounted damages every stored copy on the nodes'
// roots after set-up; the checked reads must count as failed ops.
func TestCorruptedFileCounted(t *testing.T) {
	cfg := config{workload: "read-hot", seed: 3, seconds: tinySeconds, dir: t.TempDir()}
	cfg.afterSetup = func(c *tcpCluster) {
		for i := range c.nodes {
			root := filepath.Join(c.dir, fmt.Sprintf("node%d", i))
			err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() || !strings.HasSuffix(path, ".dat") {
					return err
				}
				b, err := os.ReadFile(path)
				if err != nil || len(b) <= headerLen {
					return err
				}
				b[len(b)/2] ^= 0xff
				return os.WriteFile(path, b, 0o644)
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
	out, err := runWorkload(cfg, false, true)
	if err != nil {
		t.Fatal(err)
	}
	floor := 1 / float64(out.attempted+2)
	if out.failed == 0 || out.layers["error_frac"] <= floor {
		t.Fatalf("corruption not caught: failed=%d error_frac=%g (floor %g)", out.failed, out.layers["error_frac"], floor)
	}
	if out.errs["hot:read/content"] == 0 {
		t.Errorf("failures not classed as content errors: %v", out.errs)
	}
}

func TestSimDeterministic(t *testing.T) {
	_, a, err := runSim(5, 1000, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := runSim(5, 1000, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different model outputs:\n%+v\n%+v", a, b)
	}
	_, c, err := runSim(6, 1000, 2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatalf("seeds 5 and 6 gave identical model outputs %+v", a)
	}
}

func TestPayloadCatchesTornContent(t *testing.T) {
	base := randomBlock(1, 3*stampEvery)
	v4 := makePayload(nil, "f1", 4, base)
	v5 := makePayload(nil, "f1", 5, base)
	if v, err := checkPayload(v4, "f1"); err != nil || v != 4 {
		t.Fatalf("intact payload: version %d, err %v", v, err)
	}
	torn := append(append([]byte(nil), v5[:headerLen+stampEvery]...), v4[headerLen+stampEvery:]...)
	for name, data := range map[string][]byte{
		"torn":       torn,
		"short":      v4[:len(v4)-1],
		"other-name": makePayload(nil, "f2", 4, base),
		"empty":      nil,
	} {
		if _, err := checkPayload(data, "f1"); err == nil {
			t.Errorf("%s content passed the check", name)
		}
	}
}

func TestFileRecVersions(t *testing.T) {
	f := newFileRec("f", 0)
	cands, issued := f.beginRead(nil)
	if !f.validVersion(1, cands, issued) || f.validVersion(2, cands, issued) {
		t.Fatalf("fresh file: candidates %v", cands)
	}
	// Two overlapping writes: either may end up current.
	v2, v3 := f.beginWrite(), f.beginWrite()
	f.endWrite(v3, true)
	f.endWrite(v2, true)
	cands, issued = f.beginRead(nil)
	for _, v := range []uint64{2, 3} {
		if !f.validVersion(v, cands, issued) {
			t.Errorf("overlapping writes: version %d rejected (candidates %v)", v, cands)
		}
	}
	if f.validVersion(1, cands, issued) {
		t.Errorf("version 1 accepted after two acknowledged writes")
	}
	// A later write that succeeds supersedes both.
	v4 := f.beginWrite()
	f.endWrite(v4, true)
	cands, issued = f.beginRead(nil)
	if !f.validVersion(4, cands, issued) || f.validVersion(3, cands, issued) {
		t.Errorf("after write 4: candidates %v", cands)
	}
	// A failed write may or may not have landed.
	v5 := f.beginWrite()
	f.endWrite(v5, false)
	cands, issued = f.beginRead(nil)
	if !f.validVersion(4, cands, issued) || !f.validVersion(5, cands, issued) {
		t.Errorf("after failed write 5: candidates %v", cands)
	}
	// A write issued while the read runs may be seen.
	v6 := f.beginWrite()
	if !f.validVersion(v6, cands, issued) {
		t.Errorf("version issued during the read rejected")
	}
}

func TestQuantileExact(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if q := quantile(s, 0.5); q != 500 {
		t.Errorf("p50 = %g, want 500", q)
	}
	if q := quantile(s, 0.99); q != 990 {
		t.Errorf("p99 = %g, want 990", q)
	}
	if !qualifies(1000, 0.99) || qualifies(999, 0.99) {
		t.Errorf("p99 qualification wrong around 1000 samples")
	}
	if got := highestQualifying(1000); got != 0.99 {
		t.Errorf("highest qualifying for 1000 = %g", got)
	}
}

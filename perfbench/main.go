// Command perfbench is the repository benchmark. It drives the live TCP
// stack (fs.StartNode/StartServer/DialCluster and the fs.Client ops)
// and the simulator (cluster.Run over workload.* traces) through their
// public functions only, checks every output, and prints each metric by
// name with its unit and sample count. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs once untraced and once with registries attached, and the
// metrics are the per-layer ones plus the tracing overhead. See README.md
// for the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json; a test keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"sim_req_per_s", "1/s"},
	{"energy_pf_kj", "kJ"},
	{"energy_adaptive_kj", "kJ"},
	{"transitions_pf", "count"},
	{"resp_mean_pf_s", "s"},
}

var perLayer = []metricDef{
	{"error_frac", "fraction"},
	{"proto.rt_us.p50", "us"},
	{"proto.rt_us.p99", "us"},
	{"proto.calls_per_op", "count"},
	{"proto.queue_depth.p99", "count"},
	{"proto.retries_per_kop", "count"},
	{"proto.stream_chunks_per_op", "count"},
	{"server.lookup_us.p50", "us"},
	{"server.lookup_us.p99", "us"},
	{"server.create_us.p50", "us"},
	{"server.create_us.p99", "us"},
	{"server.accesses_per_op", "count"},
	{"server.repl.lag.max", "count"},
	{"node.read_us.p50", "us"},
	{"node.read_us.p99", "us"},
	{"node.write_us.p99", "us"},
	{"node.create_us.p50", "us"},
	{"node.create_us.p99", "us"},
	{"node.buffer_hit_ratio", "fraction"},
	{"fs.create_ms.growth", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"proc.syscr_per_op", "count"},
	{"proc.syscw_per_op", "count"},
	{"proc.cpu_ms_per_kop", "ms"},
	{"proc.wchar_per_user_byte", "ratio"},
	{"cluster.run_ms.npf", "ms"},
	{"cluster.run_ms.pf", "ms"},
	{"cluster.run_ms.adaptive", "ms"},
	{"cluster.allocs_per_req", "count"},
	{"cluster.alloc_bytes_per_req", "B"},
	{"sim.hit_ratio_pf", "fraction"},
	{"sim.queue_wait_p99_s_pf", "s"},
	{"adaptive.reprefetches", "count"},
	{"adaptive.budget_vetoes", "count"},
	{"workload.gen_ms", "ms"},
	{"host.steal_frac", "fraction"},
	{"host.speed_scale", "ratio"},
	{"mix.setup_s", "s"},
	{"mix.ops_s", "1/s"},
	{"mix.read_p50_ms", "ms"},
	{"mix.read_p99_ms", "ms"},
	{"mix.write_p99_ms", "ms"},
	{"mix.create_p50_ms", "ms"},
	{"mix.create_p99_ms", "ms"},
	{"mix.stream_read_p99_ms", "ms"},
	{"mix.stream_write_p99_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

var workloads = []string{"read-hot", "sim-testbed"}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	dir      string // node data and trace files go under here
	// afterSetup, when set, sees the main TCP part's cluster before it is
	// measured (tests corrupt a stored file through it).
	afterSetup func(*tcpCluster)
}

// Op counts per second of --seconds. Each run ends at the same count,
// so the namespace, access log and heap end at the same size every run.
const (
	hotOpsPerSec = 14000
	mixOpsPerSec = 1260
	// The simulator runs each trace simRoundsPerSec times per second of
	// --seconds (at least minSimRounds); sim_req_per_s takes each run's
	// best round. Its companion runs smaller traces.
	simReqs          = 25000 // per trace
	simCompanionReqs = 10000
	simRoundsPerSec  = 2
	minSimRounds     = 3
)

func scaled(perSec, floor int, seconds float64) int {
	return max(floor, int(float64(perSec)*seconds))
}

// simSize is the per-trace request count: full at the default run length
// and above, shrunk in proportion for shorter runs, never below 1000.
func simSize(full int, seconds float64) int {
	return max(1000, min(full, int(float64(full)*seconds/10)))
}

// mixMetrics are the write-mix part's client figures, reported per layer
// as "mix." plus the name.
var mixMetrics = []string{
	"setup_s", "ops_s", "read_p50_ms", "read_p99_ms", "write_p99_ms",
	"create_p50_ms", "create_p99_ms", "stream_read_p99_ms", "stream_write_p99_ms",
}

// runWorkload runs one workload: its main part at full size, then —
// unless mainOnly — the companion part that supplies the end-to-end
// metrics of the other workload, and, in a traced run, the write-mix
// part that loads the write path.
func runWorkload(cfg config, traced, mainOnly bool) (*partOut, error) {
	// Set-up repetitions; setup_s is their median. Generating the traces
	// takes about 10 ms, so the simulator repeats it until the speed
	// probe has timed enough units.
	hotReps, simReps := 5, 31
	if traced || mainOnly {
		hotReps, simReps = 1, 1 // the set-up time of a traced run is not reported
	}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	hot := tcpPart{name: "hot", shape: hotShape, mix: hotMix, seed: cfg.seed,
		ops: scaled(hotOpsPerSec, 200, cfg.seconds), traced: traced}
	runHot := func(out *partOut, reps int, afterSetup func(*tcpCluster)) error {
		c, times, err := setUp(dir, hot, reps, out)
		if err != nil {
			return err
		}
		defer c.close()
		out.set("setup_s", median(times), len(times))
		out.notes = append(out.notes, fmt.Sprintf("hot: set-up times %.3f s", times))
		if afterSetup != nil {
			afterSetup(c)
		}
		measure(c, hot, out)
		return nil
	}
	runSimPart := func(out *partOut, reqs, reps int) error {
		sim, _, err := runSim(cfg.seed, simSize(reqs, cfg.seconds), scaled(simRoundsPerSec, minSimRounds, cfg.seconds), reps, traced)
		if err == nil {
			out.merge(sim)
		}
		return err
	}

	out := newPartOut()
	switch cfg.workload {
	case "read-hot":
		if err := runHot(out, hotReps, cfg.afterSetup); err != nil || mainOnly {
			return out, err
		}
		if err := runSimPart(out, simCompanionReqs, 1); err != nil {
			return nil, err
		}
	case "sim-testbed":
		if err := runSimPart(out, simReqs, simReps); err != nil || mainOnly {
			return out, err
		}
		// The companion hot part runs on a cluster of its own.
		comp := newPartOut()
		if err := runHot(comp, 1, nil); err != nil {
			return nil, err
		}
		out.merge(comp)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if traced {
		if err := runMix(cfg, dir, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runMix runs the write-mix part on a replicated group of its own and
// folds its client figures into out as per-layer "mix." metrics.
func runMix(cfg config, dir string, out *partOut) error {
	p := tcpPart{name: "mix", shape: mixShape, mix: writeMix, seed: cfg.seed ^ 0xc0,
		ops: scaled(mixOpsPerSec, 200, cfg.seconds), traced: true}
	mo := newPartOut()
	c, times, err := setUp(dir, p, 1, mo)
	if err != nil {
		return err
	}
	defer c.close()
	mo.set("setup_s", median(times), len(times))
	measure(c, p, mo)
	for _, name := range mixMetrics {
		if v, ok := mo.e2e[name]; ok {
			mo.layer("mix."+name, v)
		}
	}
	mo.e2e, mo.counts = map[string]float64{}, map[string]int{}
	out.merge(mo)
	return nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// benchmark runs one workload, untraced or traced, and assembles the
// result. A traced run also writes its spans and registry snapshots to
// a file under cfg.dir.
func benchmark(cfg config, traced bool) (result, *partOut, error) {
	res := result{Metrics: map[string]jsonMetric{}}
	var out *partOut
	defs := endToEnd
	if !traced {
		var err error
		if out, err = runWorkload(cfg, false, false); err != nil {
			return res, nil, err
		}
		res.Attempted, res.Failed = out.attempted, out.failed
	} else {
		base, err := runWorkload(cfg, false, true)
		if err != nil {
			return res, nil, err
		}
		if out, err = runWorkload(cfg, true, false); err != nil {
			return res, nil, err
		}
		out.layers["trace.overhead_frac"] = 1 - out.rate/base.rate
		out.problems = append(out.problems, base.problems...)
		res.Attempted, res.Failed = base.attempted+out.attempted, base.failed+out.failed
		defs = perLayer
		if err := writeTrace(cfg, out); err != nil {
			return res, nil, err
		}
	}
	values := out.e2e
	if traced {
		values = out.layers
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.fail("metric %s was not measured", d.name)
			v = 0
		}
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	res.Correct = len(out.problems) == 0 && res.Attempted > 0
	return res, out, nil
}

func writeTrace(cfg config, out *partOut) error {
	dir := filepath.Join(cfg.dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{
		"workload":  cfg.workload,
		"seed":      cfg.seed,
		"spans":     out.spans,
		"op_fields": []string{"class", "start_us", "dur_us", "ok"},
		"op_class":  opNames,
		"ops":       out.ops,
		"registry":  out.snapshots,
		"errors":    out.errs,
		"examples":  out.examples,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	fmt.Println("trace written to", path)
	return os.WriteFile(path, b, 0o644)
}

// report prints the human-readable lines: every metric with its unit and
// sample count, the error taxonomy with one message per class, and any
// correctness problem.
func report(cfg config, res result, out *partOut, traced bool) {
	fmt.Printf("workload %s seed %d seconds %g trace %v: attempted %d failed %d correct %v\n",
		cfg.workload, cfg.seed, cfg.seconds, traced, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-28s %14.6g %-8s", n, m.Value, m.Unit)
		if cnt, ok := out.counts[n]; ok && !traced {
			line += fmt.Sprintf(" n=%d", cnt)
			if strings.HasSuffix(n, "_ms") {
				line += fmt.Sprintf(" (highest qualifying percentile p%g)", 100*highestQualifying(cnt))
			}
		}
		fmt.Println(line)
	}
	keys := make([]string, 0, len(out.errs))
	for k := range out.errs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  error %-30s x%d  e.g. %s\n", k, out.errs[k], out.examples[k])
	}
	for _, n := range out.notes {
		fmt.Println("  note:", n)
	}
	for _, p := range out.problems {
		fmt.Println("  INCORRECT:", p)
	}
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 10, "nominal measured seconds; sets each run's fixed op count")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from an extra traced run")
	dir := flag.String("dir", ".bench_build", "directory for node data and trace files")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, w := range names {
		cfg := config{workload: w, seed: *seed, seconds: *seconds, dir: *dir}
		res, out, err := benchmark(cfg, *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		report(cfg, res, out, *trace == 1)
		b, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
}

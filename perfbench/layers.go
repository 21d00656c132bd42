package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eevfs/internal/telemetry"
)

// procSnap is the process-wide counters read around a measured pass.
// The daemons run in this process, so they cover the whole stack.
type procSnap struct {
	mallocs, totalAlloc uint64
	numGC               uint32
	pauseNs             uint64
	syscr, syscw, wchar int64
	cpu                 time.Duration
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnap{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if f, err := os.Open("/proc/self/io"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			k, v, ok := strings.Cut(sc.Text(), ": ")
			if !ok {
				continue
			}
			n, _ := strconv.ParseInt(v, 10, 64)
			switch k {
			case "syscr":
				p.syscr = n
			case "syscw":
				p.syscw = n
			case "wchar":
				p.wchar = n
			}
		}
		f.Close()
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return p
}

// cpuTicks are the machine-wide CPU counters from /proc/stat: ticks the
// hypervisor gave to another guest while this VM's CPUs wanted to run
// (steal), and ticks the CPUs wanted to run at all (busy, steal
// included).
type cpuTicks struct{ steal, busy int64 }

func readTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		n, _ := strconv.ParseInt(f, 10, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal = n
			t.busy += n
		default:
			t.busy += n
		}
	}
	return t
}

// stolenShare is the share of the CPU time this VM wanted between a and
// b that the hypervisor withheld. Every time the benchmark reports is
// scaled by one minus this share: the host's other guests took from 0 to
// half of this VM's CPU from one minute to the next, which moved every
// wall-clock figure far more than any change to the program would.
func stolenShare(a, b cpuTicks) float64 {
	if d := b.busy - a.busy; d > 0 {
		return float64(b.steal-a.steal) / float64(d)
	}
	return 0
}

// regSnap is one snapshot of every registry of a traced TCP part.
type regSnap struct {
	client, node telemetry.Snapshot
	servers      []telemetry.Snapshot
}

func snapRegs(r *regs) *regSnap {
	if r == nil {
		return nil
	}
	s := &regSnap{client: r.client.Snapshot(), node: r.node.Snapshot()}
	for _, sr := range r.servers {
		s.servers = append(s.servers, sr.Snapshot())
	}
	return s
}

// histDelta returns the observations b gained over a (same layout).
func histDelta(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	out := telemetry.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Overflow: b.Overflow - a.Overflow}
	for i, bk := range b.Buckets {
		n := bk.N
		if i < len(a.Buckets) {
			n -= a.Buckets[i].N
		}
		out.Buckets = append(out.Buckets, telemetry.BucketCount{Le: bk.Le, N: n})
	}
	return out
}

// histAdd merges two histograms of the same layout.
func histAdd(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if len(a.Buckets) == 0 {
		return b
	}
	out := telemetry.HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Overflow: a.Overflow + b.Overflow}
	for i, bk := range a.Buckets {
		out.Buckets = append(out.Buckets, telemetry.BucketCount{Le: bk.Le, N: bk.N + b.Buckets[i].N})
	}
	return out
}

// delta is the change of a set of registries over one pass.
type delta struct{ a, b []telemetry.Snapshot }

func (d delta) counter(name string) int64 {
	var n int64
	for i := range d.b {
		n += d.b[i].Counters[name] - d.a[i].Counters[name]
	}
	return n
}

func (d delta) hist(name string) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for i := range d.b {
		if hb, ok := d.b[i].Histograms[name]; ok {
			out = histAdd(out, histDelta(d.a[i].Histograms[name], hb))
		}
	}
	return out
}

// tcpLayers derives the per-layer metrics of a traced TCP pass from the
// registry snapshots and process counters taken around it. Metrics whose
// layer did no work in this pass are left unset.
func tcpLayers(out *partOut, ps *passStats, p0, p1 procSnap, r0, r1 *regSnap) {
	ops := float64(ps.attempted)
	if ops == 0 {
		return
	}
	client := delta{[]telemetry.Snapshot{r0.client}, []telemetry.Snapshot{r1.client}}
	node := delta{[]telemetry.Snapshot{r0.node}, []telemetry.Snapshot{r1.node}}
	server := delta{r0.servers, r1.servers}

	quant := func(name string, h telemetry.HistogramSnapshot, q, scale float64) {
		if h.Count > 0 {
			out.layer(name, h.Quantile(q)*scale)
		}
	}
	rt := client.hist("proto.rt.seconds")
	quant("proto.rt_us.p50", rt, 0.5, 1e6)
	quant("proto.rt_us.p99", rt, 0.99, 1e6)
	out.layer("proto.calls_per_op", float64(client.counter("proto.rt.calls"))/ops)
	quant("proto.queue_depth.p99", client.hist("proto.queue.depth"), 0.99, 1)
	out.layer("proto.retries_per_kop", 1000*float64(client.counter("proto.rt.retries"))/ops)
	var streamOps int
	for _, s := range ps.samples {
		if s.kind == opStreamRead || s.kind == opStreamWrite {
			streamOps++
		}
	}
	if streamOps > 0 {
		out.layer("proto.stream_chunks_per_op", float64(client.counter("proto.stream.chunks"))/float64(streamOps))
	}

	lookup := server.hist("server.op.lookup.seconds")
	quant("server.lookup_us.p50", lookup, 0.5, 1e6)
	quant("server.lookup_us.p99", lookup, 0.99, 1e6)
	create := server.hist("server.op.create.seconds")
	quant("server.create_us.p50", create, 0.5, 1e6)
	quant("server.create_us.p99", create, 0.99, 1e6)
	out.layer("server.accesses_per_op", float64(server.counter("server.accesses"))/ops)
	if len(r1.servers) > 1 {
		out.layer("server.repl.lag.max", ps.lagMax)
	}

	nread := node.hist("node.op.read.seconds")
	quant("node.read_us.p50", nread, 0.5, 1e6)
	quant("node.read_us.p99", nread, 0.99, 1e6)
	quant("node.write_us.p99", node.hist("node.op.write.seconds"), 0.99, 1e6)
	ncreate := node.hist("node.op.create.seconds")
	quant("node.create_us.p50", ncreate, 0.5, 1e6)
	quant("node.create_us.p99", ncreate, 0.99, 1e6)
	hits, misses := node.counter("node.buffer.hits"), node.counter("node.buffer.misses")
	if hits+misses > 0 {
		out.layer("node.buffer_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if g, ok := createGrowth(ps); ok {
		out.layer("fs.create_ms.growth", g)
	}

	out.layer("runtime.allocs_per_op", float64(p1.mallocs-p0.mallocs)/ops)
	out.layer("runtime.alloc_bytes_per_op", float64(p1.totalAlloc-p0.totalAlloc)/ops)
	out.layer("runtime.gc_cycles_per_kop", 1000*float64(p1.numGC-p0.numGC)/ops)
	out.layer("runtime.gc_pause_ms", float64(p1.pauseNs-p0.pauseNs)/1e6)
	out.layer("proc.syscr_per_op", float64(p1.syscr-p0.syscr)/ops)
	out.layer("proc.syscw_per_op", float64(p1.syscw-p0.syscw)/ops)
	out.layer("proc.cpu_ms_per_kop", float64(p1.cpu-p0.cpu)/1e6*1000/ops)
	if ps.userBytes > 0 {
		out.layer("proc.wchar_per_user_byte", float64(p1.wchar-p0.wchar)/float64(ps.userBytes))
	}
}

// createGrowth is the median latency of the last tenth of a pass's
// successful creates over the median of the first tenth, in start order.
func createGrowth(ps *passStats) (float64, bool) {
	var cs []sample
	for _, s := range ps.samples {
		if s.kind == opCreate && s.ok {
			cs = append(cs, s)
		}
	}
	tenth := len(cs) / 10
	if tenth == 0 {
		return 0, false
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].startNs < cs[j].startNs })
	p50 := func(part []sample) float64 {
		v := make([]float64, len(part))
		for i, s := range part {
			v[i] = float64(s.durNs)
		}
		return median(v)
	}
	return p50(cs[len(cs)-tenth:]) / p50(cs[:tenth]), true
}

// span is one phase of a run as the benchmark timed it from outside.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"` // since the process started
	DurMs   float64 `json:"dur_ms"`
}

var processStart = time.Now()

// partOut collects what one part of a workload measured. The first part
// to set a metric wins, so a workload's main part takes precedence over
// its companions.
type partOut struct {
	e2e       map[string]float64
	counts    map[string]int // samples behind each end-to-end value
	layers    map[string]float64
	attempted int64
	failed    int64
	problems  []string // correctness violations; any makes the run incorrect
	rate      float64  // the part's throughput, for the tracing overhead
	spans     []span
	ops       [][4]int64 // traced op spans: class, start µs, duration µs, ok
	snapshots map[string]telemetry.Snapshot
	errs      map[string]int
	examples  map[string]string
	notes     []string // printed with the report, not metrics
}

func newPartOut() *partOut {
	return &partOut{
		e2e: map[string]float64{}, counts: map[string]int{}, layers: map[string]float64{},
		snapshots: map[string]telemetry.Snapshot{}, errs: map[string]int{}, examples: map[string]string{},
	}
}

func (o *partOut) set(name string, v float64, n int) {
	if _, ok := o.e2e[name]; !ok {
		o.e2e[name], o.counts[name] = v, n
	}
}

func (o *partOut) layer(name string, v float64) {
	if _, ok := o.layers[name]; !ok {
		o.layers[name] = v
	}
}

func (o *partOut) span(name string, start time.Time) {
	o.spans = append(o.spans, span{
		Name:    name,
		StartMs: float64(start.Sub(processStart).Microseconds()) / 1000,
		DurMs:   float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (o *partOut) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// merge folds a companion part into o: metrics o already has win.
func (o *partOut) merge(c *partOut) {
	for k, v := range c.e2e {
		o.set(k, v, c.counts[k])
	}
	for k, v := range c.layers {
		o.layer(k, v)
	}
	if o.rate == 0 {
		o.rate = c.rate
	}
	o.attempted += c.attempted
	o.failed += c.failed
	o.problems = append(o.problems, c.problems...)
	o.notes = append(o.notes, c.notes...)
	o.spans = append(o.spans, c.spans...)
	o.ops = append(o.ops, c.ops...)
	for k, v := range c.snapshots {
		o.snapshots[k] = v
	}
	for k, v := range c.errs {
		if o.errs[k] == 0 {
			o.examples[k] = c.examples[k]
		}
		o.errs[k] += v
	}
}

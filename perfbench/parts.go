package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// Load of every TCP part: conns fs.Client instances shared by callers
// closed-loop goroutines. With 16 callers on the two CPUs of the runner,
// a latency was mostly time spent queued behind the other callers.
const (
	callers = 4
	conns   = 2
)

// Sizes of the TCP parts, each over 2 storage nodes.
var (
	// hotShape: standalone metadata server, many small files, a small
	// prefetched hot set.
	hotShape = tcpShape{
		servers: 1, nodes: 2,
		smallFiles: 1024, smallBytes: 4096,
		warmReads: 4096, prefetchK: 64,
	}
	// mixShape: a 3-member replicated group persisting its metadata, a
	// namespace larger than the prefetched set, and a few large files
	// that streamed and RPC writes share.
	mixShape = tcpShape{
		servers: 3, stateFiles: true, nodes: 2,
		smallFiles: 512, smallBytes: 4096,
		largeFiles: 4, largeBytes: 256 << 10,
		seedFiles: 64, warmReads: 2048, prefetchK: 32,
	}
	hotMix = []mixShares{{read: 1}}
	// writeMix runs in three closed-loop phases: metadata mutations, then
	// reads of the mutated namespace, then the large files. Interleaving
	// all classes at once made each class's latency hinge on which other
	// classes happened to share its moment — 256 KiB stream frames ahead
	// of small ops on the two shared connections, reads behind create
	// persistence — and the run-to-run spread of read p50 reached 30%.
	// Every class with a named tail percentile gets enough of the plan
	// for that percentile to qualify at the default run length; reads are
	// cheap, so they get enough for the median of several windows' p99.
	writeMix = []mixShares{
		{create: 0.17, delete: 0.06, writeSmall: 0.12},
		{read: 1.00},
		{writeLarge: 0.05, streamRead: 0.19, streamWrite: 0.21},
	}
)

// tcpPart is one TCP part of a workload.
type tcpPart struct {
	name   string // "hot" or "mix": prefixes file names and error classes
	shape  tcpShape
	mix    []mixShares // phases, run one after another
	ops    int
	seed   uint64
	traced bool
}

// setUp boots a cluster for p and preloads, warms and prefetches it,
// reps times; it keeps the last cluster and reports every set-up time.
func setUp(dir string, p tcpPart, reps int, out *partOut) (*tcpCluster, []float64, error) {
	var times []float64
	var c *tcpCluster
	// One watch spans every repetition: a single set-up is too short for
	// the speed probe to settle.
	w := startWatch()
	for i := 0; i < reps; i++ {
		if c != nil {
			c.close()
		}
		var r *regs
		if p.traced {
			r = newRegs(p.shape.servers)
		}
		t0 := time.Now()
		var err error
		c, err = bootCluster(filepath.Join(dir, fmt.Sprintf("%s-%d", p.name, i)), p.shape, r)
		if err != nil {
			w.stop()
			return nil, nil, fmt.Errorf("%s: boot: %w", p.name, err)
		}
		out.span("setup."+p.name+".boot", t0)
		if err := prime(c, p, out); err != nil {
			w.stop()
			c.close()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	_, steal, scale := w.stop()
	for i := range times {
		times[i] *= keep(steal, scale)
	}
	return c, times, nil
}

// prime preloads the namespace, warms popularity with reads drawn from
// the measured distribution and prefetches the top K to buffer disks.
func prime(c *tcpCluster, p tcpPart, out *partOut) error {
	t0 := time.Now()
	if err := c.preload(p.name, p.seed); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	out.span("setup."+p.name+".preload", t0)
	if p.shape.warmReads > 0 {
		t1 := time.Now()
		warm := planOps(p.seed, 0, p.shape.warmReads, hotMix[0], p.shape.smallFiles, p.shape.largeFiles)
		if ws := c.drive(p.name, warm); ws.failed > 0 {
			return fmt.Errorf("%s: %d of %d warm-up reads failed: %v", p.name, ws.failed, ws.attempted, ws.examples)
		}
		out.span("setup."+p.name+".warm", t1)
	}
	if p.shape.prefetchK > 0 {
		t1 := time.Now()
		if _, err := c.clients[0].Prefetch(p.shape.prefetchK); err != nil {
			return fmt.Errorf("%s: prefetch: %w", p.name, err)
		}
		out.span("setup."+p.name+".prefetch", t1)
	}
	return nil
}

// measure runs p's planned ops on c and reports the part's end-to-end
// metrics and, when traced, its per-layer metrics.
func measure(c *tcpCluster, p tcpPart, out *partOut) {
	var r0 *regSnap
	var p0 procSnap
	if p.traced {
		r0, p0 = snapRegs(c.regs), readProc()
	}
	runtime.GC() // start every measured pass from a collected heap
	t0 := time.Now()
	total := 0.0
	for _, ph := range p.mix {
		total += ph.sum()
	}
	var passes []*passStats
	for i, ph := range p.mix {
		n := int(float64(p.ops)*ph.sum()/total + 0.5)
		passes = append(passes, c.drive(p.name, planOps(p.seed, uint64(i+1), n, ph, p.shape.smallFiles, p.shape.largeFiles)))
	}
	ps := joinPasses(passes)
	out.span("measure."+p.name, t0)
	out.notes = append(out.notes, fmt.Sprintf("%s: host took %.1f%% of the CPU time the VM wanted; speed scale %.3f; raw rate %.1f ops/s",
		p.name, 100*ps.stolen, ps.speed, float64(ps.attempted)/ps.wall.Seconds()))
	if ps.skipped > 0 {
		out.notes = append(out.notes, fmt.Sprintf("%s: %d deletes skipped: no earlier create left", p.name, ps.skipped))
	}
	out.layer("host.steal_frac", ps.stolen)
	out.layer("host.speed_scale", ps.speed)
	if p.traced {
		p1, r1 := readProc(), snapRegs(c.regs)
		tcpLayers(out, ps, p0, p1, r0, r1)
		for _, s := range ps.samples {
			ok := int64(0)
			if s.ok {
				ok = 1
			}
			out.ops = append(out.ops, [4]int64{int64(s.kind), s.startNs / 1000, s.durNs / 1000, ok})
		}
		out.snapshots[p.name+".client"] = r1.client
		out.snapshots[p.name+".node"] = r1.node
		for i, s := range r1.servers {
			out.snapshots[fmt.Sprintf("%s.server%d", p.name, i)] = s
		}
	}

	// An acknowledged file the server no longer lists is a failed op.
	lost := int64(0)
	if missing, err := c.missingFiles(); err != nil {
		out.fail("%s: listing the namespace: %v", p.name, err)
	} else if len(missing) > 0 {
		lost = int64(len(missing))
		ps.errs["lost"] += len(missing)
		ps.examples["lost"] = "acknowledged file missing: " + missing[0]
	}
	failed := ps.failed + lost
	out.attempted += ps.attempted
	out.failed += failed
	for k, v := range ps.errs {
		out.errs[p.name+":"+k] += v
		out.examples[p.name+":"+k] = ps.examples[k]
	}

	out.rate = ps.opsPerSec
	out.set("ops_s", out.rate, int(ps.attempted))
	out.layer("error_frac", float64(failed+1)/float64(ps.attempted+2))
	for _, m := range []struct {
		name string
		kind uint8
		q    float64
	}{
		{"read_p50_ms", opRead, 0.5},
		{"read_p99_ms", opRead, 0.99},
		{"write_p99_ms", opWrite, 0.99},
		{"create_p50_ms", opCreate, 0.5},
		{"create_p99_ms", opCreate, 0.99},
		{"stream_read_p99_ms", opStreamRead, 0.99},
		{"stream_write_p99_ms", opStreamWrite, 0.99},
	} {
		if lat := ps.latencies(m.kind); len(lat) > 0 {
			out.set(m.name, windowedQuantile(lat, m.q), len(lat))
		}
	}
}

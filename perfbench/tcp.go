package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/fs"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// Op classes. Latency metrics are named after these.
const (
	opRead = iota
	opWrite
	opCreate
	opDelete
	opStreamRead
	opStreamWrite
	numOps
)

var opNames = [numOps]string{"read", "write", "create", "delete", "stream_read", "stream_write"}

// op is one planned client operation. file indexes the small or large
// file table; creates and deletes pick their own names.
type op struct {
	kind  uint8
	large bool
	file  int32
}

// tcpShape sizes one TCP part: the cluster it boots and the namespace it
// preloads.
type tcpShape struct {
	servers    int  // 1 = standalone metadata server
	stateFiles bool // each server persists its metadata
	nodes      int
	smallFiles int
	smallBytes int
	largeFiles int
	largeBytes int
	seedFiles  int // created in set-up so deletes always have a target
	warmReads  int
	prefetchK  int
}

// mixShares is the fraction of planned ops per class.
type mixShares struct {
	read, writeSmall, writeLarge, create, delete, streamRead, streamWrite float64
}

// regs are the registries handed to the daemons and clients of a traced
// run; every field is nil in an untraced run.
type regs struct {
	client  *telemetry.Registry
	node    *telemetry.Registry
	servers []*telemetry.Registry
}

func newRegs(servers int) *regs {
	r := &regs{client: telemetry.NewRegistry(), node: telemetry.NewRegistry()}
	for i := 0; i < servers; i++ {
		r.servers = append(r.servers, telemetry.NewRegistry())
	}
	return r
}

// tcpCluster is one booted in-process cluster plus the benchmark's view
// of what its namespace must hold.
type tcpCluster struct {
	shape   tcpShape
	dir     string
	regs    *regs
	nodes   []*fs.Node
	servers []*fs.Server
	addrs   []string
	clients []*fs.Client

	small, large         []*fileRec
	smallBase, largeBase []byte

	createMu sync.Mutex
	created  []string // acknowledged creates not yet deleted, oldest first
	nextName atomic.Int64
}

// bootCluster starts shape.nodes storage nodes and the metadata group
// the way cmd/eevfsload does: listeners bound first, members started in
// index order. reg is nil for an untraced run.
func bootCluster(dir string, shape tcpShape, r *regs) (c *tcpCluster, err error) {
	c = &tcpCluster{shape: shape, dir: dir, regs: r}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return c, err
	}
	quiet := log.New(io.Discard, "", 0)
	var nodeReg, clientReg *telemetry.Registry
	if r != nil {
		nodeReg, clientReg = r.node, r.client
	}
	var nodeAddrs []string
	for i := 0; i < shape.nodes; i++ {
		n, err := fs.StartNode(fs.NodeConfig{
			Addr:             "127.0.0.1:0",
			RootDir:          filepath.Join(dir, fmt.Sprintf("node%d", i)),
			DataDisks:        2,
			DataModel:        disk.ModelType1,
			BufferModel:      disk.ModelType1,
			IdleThresholdSec: 5,
			TimeScale:        2000,
			Logger:           quiet,
			Metrics:          nodeReg,
		})
		if err != nil {
			return c, fmt.Errorf("starting node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
		nodeAddrs = append(nodeAddrs, n.Addr())
	}
	lns := make([]net.Listener, shape.servers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return c, err
		}
		lns[i] = ln
		c.addrs = append(c.addrs, ln.Addr().String())
	}
	var peers []string
	if shape.servers > 1 {
		peers = c.addrs
	}
	for i := 0; i < shape.servers; i++ {
		cfg := fs.ServerConfig{
			NodeAddrs: nodeAddrs,
			Logger:    quiet,
			Peers:     peers,
			Self:      i,
			Listener:  lns[i],
		}
		if shape.stateFiles {
			cfg.StateFile = filepath.Join(dir, fmt.Sprintf("server%d.json", i))
		}
		if r != nil {
			cfg.Metrics = r.servers[i]
		}
		srv, err := fs.StartServer(cfg)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			return c, fmt.Errorf("starting server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
	}
	for i := 0; i < conns; i++ {
		cl, err := fs.DialCluster(c.addrs, fs.ClientConfig{Transport: proto.TransportConfig{Metrics: clientReg}})
		if err != nil {
			return c, err
		}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// close stops every client, server and node and removes the data. It
// may be called more than once.
func (c *tcpCluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for i := len(c.servers) - 1; i >= 0; i-- {
		c.servers[i].Close()
	}
	for _, n := range c.nodes {
		n.Close()
	}
	c.clients, c.servers, c.nodes = nil, nil, nil
	os.RemoveAll(c.dir)
}

// parallel runs fn(i) for i in [0, n) on the callers.
func (c *tcpCluster) parallel(n int, fn func(caller, i int) error) error {
	var next atomic.Int64
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// preload creates the small, large and seed files with version 1 under
// prefix; they replace the file tables of any earlier preload.
func (c *tcpCluster) preload(prefix string, seed uint64) error {
	s := c.shape
	c.small, c.large = nil, nil
	if c.smallBase == nil {
		c.smallBase = randomBlock(seed^0x5111, s.smallBytes-headerLen)
		c.largeBase = randomBlock(seed^0x1a46e, max(0, s.largeBytes-headerLen))
	}
	type item struct {
		rec  *fileRec
		base []byte
	}
	for i := 0; i < s.smallFiles; i++ {
		c.small = append(c.small, newFileRec(fmt.Sprintf("%ss%05d", prefix, i), s.smallBytes))
	}
	for i := 0; i < s.largeFiles; i++ {
		c.large = append(c.large, newFileRec(fmt.Sprintf("%sL%03d", prefix, i), s.largeBytes))
	}
	// The server places files round-robin in the order creates reach it.
	// Creating the large files and the hottest small files one at a time
	// fixes their placement, so the load on each node does not depend on
	// how concurrent creates happened to interleave.
	var items []item
	for _, r := range c.large {
		items = append(items, item{r, c.largeBase})
	}
	for _, i := range hotOrder(seed, s.smallFiles) {
		items = append(items, item{c.small[i], c.smallBase})
	}
	serial := s.largeFiles + min(s.smallFiles, s.prefetchK)
	for i := 0; i < s.seedFiles; i++ {
		r := newFileRec(c.createName(prefix), s.smallBytes)
		items = append(items, item{r, c.smallBase})
		c.created = append(c.created, r.name)
	}
	bufs := make([][]byte, callers)
	create := func(w, i int) error {
		it := items[i]
		bufs[w] = makePayload(bufs[w], it.rec.name, 1, it.base)
		return c.clients[w%len(c.clients)].Create(it.rec.name, bufs[w])
	}
	for i := 0; i < serial; i++ {
		if err := create(0, i); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	if err := c.parallel(len(items)-serial, func(w, i int) error { return create(w, serial+i) }); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	return nil
}

func (c *tcpCluster) createName(prefix string) string {
	return fmt.Sprintf("%sc%07d", prefix, c.nextName.Add(1))
}

// zipfPicker draws small-file indexes with Zipf(1.1) popularity over a
// seeded permutation, so which files are hot depends on the seed.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

// hotOrder lists n small-file indexes from most to least popular. It
// depends on seed alone, so preload, warm-up and measured plans agree on
// which files are hot.
func hotOrder(seed uint64, n int) []int {
	return rand.New(rand.NewPCG(seed, 0x7065726d)).Perm(n)
}

func newZipfPicker(r *rand.Rand, seed uint64, n int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(r, 1.1, 1, uint64(n-1)), perm: hotOrder(seed, n)}
}

func (p *zipfPicker) pick() int32 { return int32(p.perm[p.z.Uint64()]) }

func (m mixShares) sum() float64 {
	return m.read + m.writeSmall + m.writeLarge + m.create + m.delete + m.streamRead + m.streamWrite
}

// planOps draws n ops from the shares with a generator seeded by seed
// and stream.
func planOps(seed uint64, stream uint64, n int, m mixShares, smallFiles, largeFiles int) []op {
	r := rand.New(rand.NewPCG(seed, stream))
	zp := newZipfPicker(r, seed, smallFiles)
	cum := []float64{m.read, m.writeSmall, m.writeLarge, m.create, m.delete, m.streamRead, m.streamWrite}
	for i := 1; i < len(cum); i++ {
		cum[i] += cum[i-1]
	}
	plan := make([]op, n)
	for i := range plan {
		x := r.Float64() * cum[len(cum)-1]
		switch sort.Search(len(cum), func(i int) bool { return cum[i] > x }) {
		case 0:
			plan[i] = op{kind: opRead, file: zp.pick()}
		case 1:
			plan[i] = op{kind: opWrite, file: zp.pick()}
		case 2:
			plan[i] = op{kind: opWrite, large: true, file: int32(r.IntN(largeFiles))}
		case 3:
			plan[i] = op{kind: opCreate}
		case 4:
			plan[i] = op{kind: opDelete}
		case 5:
			plan[i] = op{kind: opStreamRead, file: int32(r.IntN(largeFiles))}
		default:
			plan[i] = op{kind: opStreamWrite, file: int32(r.IntN(largeFiles))}
		}
	}
	return plan
}

// sample is one completed op as seen by its caller.
type sample struct {
	kind    uint8
	ok      bool
	startNs int64 // since the pass began
	durNs   int64
}

// passStats is everything one measured pass of planned ops produced.
type passStats struct {
	samples   []sample
	attempted int64
	failed    int64
	skipped   int64 // deletes that found no earlier create to remove
	userBytes int64 // payload bytes the clients wrote
	errs      map[string]int
	examples  map[string]string // first message seen per error class
	lagMax    float64           // highest server.repl.lag seen while the pass ran
	opsPerSec float64
	stolen    float64 // share of wanted CPU time the host withheld
	speed     float64 // the speed probe's scale over the pass
	wall      time.Duration
}

// latencies returns the millisecond latencies of successful ops of one
// class, in the order they started.
func (p *passStats) latencies(kind uint8) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.kind == kind && s.ok {
			out = append(out, float64(s.durNs)/1e6)
		}
	}
	return out
}

// rate is the median over maxWindows equal slices of the pass of the
// ops completed per second in each slice.
func (p *passStats) rate() float64 {
	if p.wall <= 0 {
		return 0
	}
	w := time.Duration(maxWindows)
	counts := make([]float64, maxWindows)
	for _, s := range p.samples {
		i := int(time.Duration(s.startNs+s.durNs) * w / p.wall)
		counts[min(i, maxWindows-1)]++
	}
	for i := range counts {
		counts[i] /= (p.wall / w).Seconds()
	}
	return median(counts)
}

// callerState is one caller's reusable buffers.
type callerState struct {
	client *fs.Client
	buf    []byte
	rbuf   bytes.Buffer
	rd     bytes.Reader
	cands  []uint64
}

// drive runs plan with closed-loop callers: each caller takes the next
// planned op only after its previous one returned, so every run ends at
// the same op count.
func (c *tcpCluster) drive(prefix string, plan []op) *passStats {
	ps := &passStats{errs: map[string]int{}, examples: map[string]string{}}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
		userByte atomic.Int64
		skipped  atomic.Int64
	)
	stopLag := c.sampleLag(ps)
	hw := startWatch()
	begin := hw.begin
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs := &callerState{client: c.clients[w%len(c.clients)]}
			var local []sample
			localErrs := map[string]int{}
			localEx := map[string]string{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan) {
					break
				}
				o := plan[i]
				release := c.acquire(o)
				t0 := time.Now()
				n, err := c.exec(cs, prefix, o)
				d := time.Since(t0)
				release()
				if errors.Is(err, errNothingToDelete) {
					skipped.Add(1)
					continue
				}
				userByte.Add(n)
				if err != nil {
					k := errClass(o.kind, err)
					if localErrs[k]++; localErrs[k] == 1 {
						localEx[k] = err.Error()
					}
				}
				local = append(local, sample{kind: o.kind, ok: err == nil, startNs: int64(t0.Sub(begin)), durNs: int64(d)})
			}
			mu.Lock()
			ps.samples = append(ps.samples, local...)
			for k, v := range localErrs {
				if ps.errs[k] == 0 {
					ps.examples[k] = localEx[k]
				}
				ps.errs[k] += v
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	ps.wall, ps.stolen, ps.speed = hw.stop()
	stopLag()
	// Report times net of what the host withheld and at the probe's
	// reference speed (see probe.go).
	k := keep(ps.stolen, ps.speed)
	ps.opsPerSec = ps.rate() / k
	for i := range ps.samples {
		ps.samples[i].durNs = int64(float64(ps.samples[i].durNs) * k)
	}
	ps.userBytes = userByte.Load()
	ps.skipped = skipped.Load()
	sort.Slice(ps.samples, func(i, j int) bool { return ps.samples[i].startNs < ps.samples[j].startNs })
	for _, s := range ps.samples {
		ps.attempted++
		if !s.ok {
			ps.failed++
		}
	}
	return ps
}

// joinPasses concatenates consecutive passes into one. Its rate weighs
// each pass's rate by its op count: total ops over the sum of each
// pass's ops divided by its rate.
func joinPasses(passes []*passStats) *passStats {
	if len(passes) == 1 {
		return passes[0]
	}
	out := &passStats{errs: map[string]int{}, examples: map[string]string{}}
	var offset int64
	var weighted float64
	for _, p := range passes {
		for _, s := range p.samples {
			s.startNs += offset
			out.samples = append(out.samples, s)
		}
		offset += int64(p.wall)
		out.wall += p.wall
		out.stolen += p.stolen * p.wall.Seconds()
		out.speed += p.speed * p.wall.Seconds()
		out.attempted += p.attempted
		out.failed += p.failed
		out.skipped += p.skipped
		out.userBytes += p.userBytes
		out.lagMax = max(out.lagMax, p.lagMax)
		for k, v := range p.errs {
			if out.errs[k] == 0 {
				out.examples[k] = p.examples[k]
			}
			out.errs[k] += v
		}
		if p.opsPerSec > 0 {
			weighted += float64(p.attempted) / p.opsPerSec
		}
	}
	if weighted > 0 {
		out.opsPerSec = float64(out.attempted) / weighted
	}
	out.stolen /= out.wall.Seconds()
	out.speed /= out.wall.Seconds()
	return out
}

// sampleLag polls the servers' replication-lag gauges while a traced
// pass runs and returns a function that stops polling.
func (c *tcpCluster) sampleLag(ps *passStats) func() {
	if c.regs == nil || len(c.regs.servers) < 2 {
		return func() {}
	}
	var gauges []*telemetry.Gauge
	for _, r := range c.regs.servers {
		gauges = append(gauges, r.Gauge("server.repl.lag"))
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			for _, g := range gauges {
				if v := g.Value(); v > ps.lagMax {
					ps.lagMax = v
				}
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(stop); <-done }
}

var errNothingToDelete = errors.New("no earlier create left to delete")

// acquire takes the large file's access lock for an op on it (shared for
// a streamed read, exclusive for a write) and returns its release. Two
// ops on one large file never overlap: a stream read that overlaps a
// write of the same file can return torn content (node_stream.go:155 vs
// node.go:989), and two overlapping stream writes of one file share one
// .part path (node_stream.go:203,236), so one of them fails. Both are
// known defects; the benchmark's ops must not fail, so it keeps them out
// of its load. Waiting for the lock is not part of an op's latency.
func (c *tcpCluster) acquire(o op) func() {
	switch {
	case o.kind == opStreamRead:
		f := c.large[o.file]
		f.access.RLock()
		return f.access.RUnlock
	case o.kind == opStreamWrite || (o.kind == opWrite && o.large):
		f := c.large[o.file]
		f.access.Lock()
		return f.access.Unlock
	}
	return func() {}
}

// exec performs one op and checks what it read. It returns the payload
// bytes written and the op's error; a wrong, short or stale read is an
// error like any other.
func (c *tcpCluster) exec(cs *callerState, prefix string, o op) (int64, error) {
	switch o.kind {
	case opRead:
		f := c.small[o.file]
		cands, issued := f.beginRead(cs.cands[:0])
		cs.cands = cands
		data, _, err := cs.client.Read(f.name)
		if err != nil {
			return 0, err
		}
		return 0, c.check(f, data, cands, issued)
	case opStreamRead:
		f := c.large[o.file]
		cands, issued := f.beginRead(cs.cands[:0])
		cs.cands = cands
		cs.rbuf.Reset()
		if _, _, err := cs.client.ReadTo(f.name, &cs.rbuf); err != nil {
			return 0, err
		}
		return 0, c.check(f, cs.rbuf.Bytes(), cands, issued)
	case opWrite, opStreamWrite:
		f, base := c.small[o.file], c.smallBase
		if o.large || o.kind == opStreamWrite {
			f, base = c.large[o.file], c.largeBase
		}
		v := f.beginWrite()
		cs.buf = makePayload(cs.buf, f.name, v, base)
		var err error
		if o.kind == opWrite {
			_, err = cs.client.Write(f.name, cs.buf)
		} else {
			cs.rd.Reset(cs.buf)
			_, err = cs.client.WriteFrom(f.name, int64(len(cs.buf)), &cs.rd)
		}
		f.endWrite(v, err == nil)
		return int64(len(cs.buf)), err
	case opCreate:
		name := c.createName(prefix)
		cs.buf = makePayload(cs.buf, name, 1, c.smallBase)
		if err := cs.client.Create(name, cs.buf); err != nil {
			return int64(len(cs.buf)), err
		}
		c.createMu.Lock()
		c.created = append(c.created, name)
		c.createMu.Unlock()
		return int64(len(cs.buf)), nil
	case opDelete:
		c.createMu.Lock()
		if len(c.created) == 0 {
			c.createMu.Unlock()
			return 0, errNothingToDelete
		}
		name := c.created[0]
		c.created = c.created[1:]
		c.createMu.Unlock()
		return 0, cs.client.Delete(name)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// check verifies read content against the versions the read may see.
func (c *tcpCluster) check(f *fileRec, data []byte, cands []uint64, issued uint64) error {
	v, err := checkPayload(data, f.name)
	if err != nil {
		return err
	}
	if len(data) != f.size {
		return fmt.Errorf("%w: %s: read %d bytes, want %d", errCorrupt, f.name, len(data), f.size)
	}
	if !f.validVersion(v, cands, issued) {
		return fmt.Errorf("%w: %s: read version %d, acknowledged %v", errCorrupt, f.name, v, cands)
	}
	return nil
}

// missingFiles lists every acknowledged file the server no longer has.
func (c *tcpCluster) missingFiles() ([]string, error) {
	names, err := c.clients[0].List()
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool, len(names))
	for _, n := range names {
		have[n] = true
	}
	var missing []string
	for _, recs := range [][]*fileRec{c.small, c.large} {
		for _, f := range recs {
			if !have[f.name] {
				missing = append(missing, f.name)
			}
		}
	}
	c.createMu.Lock()
	defer c.createMu.Unlock()
	for _, n := range c.created {
		if !have[n] {
			missing = append(missing, n)
		}
	}
	return missing, nil
}

// errClass buckets an error for the taxonomy: op class plus a short
// cause, keeping the message of the first occurrence out of the key.
func errClass(kind uint8, err error) string {
	cause := "other"
	var te *proto.TransportError
	var re *proto.RemoteError
	switch {
	case errors.Is(err, errCorrupt):
		cause = "content"
	case errors.Is(err, fs.ErrFileNotFound):
		cause = "not-found"
	case errors.As(err, &te):
		cause = "transport"
	case errors.As(err, &re):
		cause = "remote"
	}
	return opNames[kind] + "/" + cause
}

package fs

import (
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eevfs/internal/disk"
	"eevfs/internal/metadata"
	"eevfs/internal/proto"
	"eevfs/internal/simtime"
	"eevfs/internal/telemetry"
)

// NodeConfig configures one storage-node daemon.
type NodeConfig struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// test port).
	Addr string
	// RootDir holds the disk directories: data0..dataN-1 and buffer.
	RootDir string
	// DataDisks is the number of data disks (directories).
	DataDisks int
	// DataModel and BufferModel are the drive models backing latency
	// injection and energy accounting.
	DataModel   disk.Model
	BufferModel disk.Model
	// IdleThresholdSec sends a data disk to standby after this much model
	// time without requests (Section III-C). Zero disables DPM.
	IdleThresholdSec float64
	// TimeScale is model seconds per real second (see Clock).
	TimeScale float64
	// InjectLatency sleeps the modeled service and transition times.
	// Disable only for benchmarks of the protocol itself.
	InjectLatency bool
	// WriteBuffer stores incoming writes on the buffer disk's log and
	// flushes them to the data disk lazily (Section III-C).
	WriteBuffer bool
	// BufferCapacityBytes bounds the buffer disk's occupancy (prefetched
	// copies plus unflushed buffered writes). Zero means unbounded —
	// directories have no spindle-sized limit, but a deployment standing
	// in for a real drive should set this.
	BufferCapacityBytes int64
	// StripeChunkBytes stripes file content across the node's data disks
	// in chunks of this size (the paper's Section VII striping proposal).
	// Chunk reads and writes proceed in parallel across the spindles.
	// Zero stores each file whole on one data disk.
	StripeChunkBytes int64
	// StreamChunkBytes is the node's preferred data-frame size for the
	// streaming read/write path (DESIGN.md §19); a client's explicit
	// chunk-size request wins. Zero means proto.DefaultStreamChunk.
	StreamChunkBytes int64
	// WriteTimeout bounds writing one response frame, so a stalled or
	// partitioned peer cannot pin a serving goroutine (default 30s).
	WriteTimeout time.Duration
	// AcceptLoops is how many goroutines accept on the listener in
	// parallel (default 4).
	AcceptLoops int
	// ConnWorkers caps concurrent in-flight requests per connection
	// (default 128); ConnStreams caps open streams per connection
	// (default 64).
	ConnWorkers int
	ConnStreams int
	// Logger receives operational messages (nil = log.Default).
	Logger *log.Logger
	// Metrics, when set, receives the node's telemetry: per-op latency
	// histograms and error counters (node.op.*), buffer hit/miss/write
	// counters (node.buffer.*), and power-state transition accounting
	// (node.disk.*). Nil disables instrumentation.
	Metrics *telemetry.Registry
	// Tracer, when set, records a span per handled request (joined to
	// the caller's trace when the frame carried a context) plus disk-level
	// child spans covering spin-ups and service time. Nil disables tracing.
	Tracer *telemetry.Tracer
	// Energy, when set, receives the per-request joule attribution joined
	// from the disks' transition observers: every dwell a disk closes
	// while serving a request is charged to that request's trace and
	// file; idle, standby, and spin-down dwells are charged to the
	// background bucket. Nil disables the join.
	Energy *telemetry.EnergyLedger
}

func (c NodeConfig) validate() error {
	switch {
	case c.RootDir == "":
		return errors.New("fs: node RootDir required")
	case c.DataDisks <= 0:
		return fmt.Errorf("fs: node needs at least one data disk, got %d", c.DataDisks)
	case c.IdleThresholdSec < 0:
		return errors.New("fs: negative idle threshold")
	case c.StripeChunkBytes < 0:
		return errors.New("fs: negative stripe chunk size")
	case c.BufferCapacityBytes < 0:
		return errors.New("fs: negative buffer capacity")
	}
	if err := c.DataModel.Validate(); err != nil {
		return err
	}
	return c.BufferModel.Validate()
}

// nodeDisk pairs a disk state machine with its backing directory. The
// mutex serializes all access — a real drive has one head.
type nodeDisk struct {
	mu       sync.Mutex
	d        *disk.Disk
	dir      string
	label    string
	isBuffer bool
	index    int // data-disk index; -1 for the buffer disk
	timer    *time.Timer

	// Current request attribution, owned by the mu holder: the trace,
	// file, and span this disk is working for right now. The transition
	// observer charges active/spin-up dwells to them; zero values mean
	// background work (flushes, timer-driven spin-downs).
	curTrace uint64
	curFile  string
	curSpan  *telemetry.Span
}

// Node is a running storage-node daemon.
type Node struct {
	cfg    NodeConfig
	clock  *Clock
	ln     net.Listener
	meta   *metadata.NodeMap
	buffer *nodeDisk
	data   []*nodeDisk
	logger *log.Logger

	mu         sync.Mutex
	nextDisk   int             // round-robin cursor for file creation
	dirty      map[int]int64   // fileID -> size awaiting flush to its data disk
	hints      map[int]float64 // fileID -> mean inter-arrival (model sec)
	lastAccess map[int]float64 // fileID -> model time of the last request
	closing    bool
	conns      map[net.Conn]struct{}
	wg         sync.WaitGroup
	hits       int64
	misses     int64
	bufWrites  int64
	saveMu     sync.Mutex // serializes manifest saves

	// Pre-resolved telemetry handles (all no-ops with a nil registry);
	// hitsC/missesC/bufWritesC mirror the counters above into the
	// registry so the admin endpoint sees them live.
	met           opMetrics
	hitsC         *telemetry.Counter
	missesC       *telemetry.Counter
	bufWritesC    *telemetry.Counter
	flushesC      *telemetry.Counter
	streamBytesC  *telemetry.Counter
	streamChunksC *telemetry.Counter
}

// StartNode creates the disk directories, binds the listener, and starts
// serving.
func StartNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(os.Stderr, "eevfs-node ", log.LstdFlags)
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	n := &Node{
		cfg:        cfg,
		clock:      NewClock(cfg.TimeScale),
		meta:       metadata.NewNodeMap(),
		logger:     cfg.Logger,
		dirty:      make(map[int]int64),
		hints:      make(map[int]float64),
		lastAccess: make(map[int]float64),
		conns:      make(map[net.Conn]struct{}),
	}

	n.met = newOpMetrics(cfg.Metrics, "node", []proto.Type{
		proto.TNodeCreateReq, proto.TNodeWriteReq, proto.TNodeReadReq,
		proto.TNodeReadAtReq, proto.TNodeDeleteReq, proto.TNodePrefetchReq,
		proto.TNodeHintsReq, proto.TNodeStatsReq,
		proto.TStreamReadReq, proto.TStreamWriteReq,
	})
	n.streamBytesC = cfg.Metrics.Counter("node.stream.bytes")
	n.streamChunksC = cfg.Metrics.Counter("node.stream.chunks")
	n.hitsC = cfg.Metrics.Counter("node.buffer.hits")
	n.missesC = cfg.Metrics.Counter("node.buffer.misses")
	n.bufWritesC = cfg.Metrics.Counter("node.buffer.writes")
	n.flushesC = cfg.Metrics.Counter("node.buffer.flushes")
	diskObs := transitionObserver(cfg.Metrics, "node")

	bufDir := filepath.Join(cfg.RootDir, "buffer")
	if err := os.MkdirAll(bufDir, 0o755); err != nil {
		return nil, fmt.Errorf("fs: creating buffer dir: %w", err)
	}
	n.buffer = &nodeDisk{
		d: disk.New("buffer", cfg.BufferModel), dir: bufDir,
		label: "buffer", isBuffer: true, index: -1,
	}
	n.buffer.d.SetObserver(n.diskObserver(n.buffer, diskObs))
	for i := 0; i < cfg.DataDisks; i++ {
		dir := filepath.Join(cfg.RootDir, fmt.Sprintf("data%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("fs: creating data dir %d: %w", i, err)
		}
		nd := &nodeDisk{
			d:     disk.New(fmt.Sprintf("data%d", i), cfg.DataModel),
			dir:   dir,
			label: fmt.Sprintf("data%d", i),
			index: i,
		}
		nd.d.SetObserver(n.diskObserver(nd, diskObs))
		n.data = append(n.data, nd)
	}

	if err := n.loadManifest(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	n.ln = ln
	loops := cfg.AcceptLoops
	if loops <= 0 {
		loops = 4
	}
	for i := 0; i < loops; i++ {
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Files returns a snapshot of the node's local metadata, in id order.
// The simulation-testing harness uses it to cross-check the server's
// placement records against what each node actually holds.
func (n *Node) Files() []metadata.NodeEntry {
	ids := n.meta.IDs()
	out := make([]metadata.NodeEntry, 0, len(ids))
	for _, id := range ids {
		if e, ok := n.meta.Lookup(id); ok {
			out = append(out, e)
		}
	}
	return out
}

// Close stops the daemon, flushes the write buffer, and waits for
// connections to drain.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closing {
		n.mu.Unlock()
		return nil
	}
	n.closing = true
	for c := range n.conns {
		c.Close()
	}
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	n.flushAll()
	n.saveManifest()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	acceptConns(n.ln, n.logger.Printf, func(conn net.Conn) {
		n.mu.Lock()
		if n.closing {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.serveConn(conn)
	})
}

func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		conn.Close()
	}()
	serveFrames(conn, n.cfg.WriteTimeout, n.dispatch, n.dispatchStream,
		connLimits{workers: n.cfg.ConnWorkers, streams: n.cfg.ConnStreams})
}

func (n *Node) dispatch(t proto.Type, payload []byte, sc telemetry.SpanContext) (proto.Type, []byte, error) {
	start := time.Now()
	sp := n.cfg.Tracer.StartRemote(sc, "node", "node."+opName(t))
	rt, rp, err := n.dispatchInner(t, payload, sp)
	n.met.observe(t, time.Since(start), err)
	sp.End(err)
	return rt, rp, err
}

func (n *Node) dispatchInner(t proto.Type, payload []byte, sp *telemetry.Span) (proto.Type, []byte, error) {
	switch t {
	case proto.TNodeCreateReq:
		req, err := proto.DecodeNodeCreateReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := n.handleCreate(req); err != nil {
			return 0, nil, err
		}
		return proto.TNodeCreateResp, nil, nil

	case proto.TNodeWriteReq:
		req, err := proto.DecodeNodeWriteReq(payload)
		if err != nil {
			return 0, nil, err
		}
		buffered, err := n.handleWrite(req, sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TNodeWriteResp, proto.NodeWriteResp{Buffered: buffered}.Encode(), nil

	case proto.TNodeReadReq:
		req, err := proto.DecodeNodeReadReq(payload)
		if err != nil {
			return 0, nil, err
		}
		data, fromBuffer, err := n.handleRead(req.FileID, sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TNodeReadResp,
			proto.NodeReadResp{FromBuffer: fromBuffer, Data: data}.Encode(), nil

	case proto.TNodeDeleteReq:
		req, err := proto.DecodeNodeDeleteReq(payload)
		if err != nil {
			return 0, nil, err
		}
		if err := n.handleDelete(req.FileID); err != nil {
			return 0, nil, err
		}
		return proto.TNodeDeleteResp, nil, nil

	case proto.TNodePrefetchReq:
		req, err := proto.DecodeNodePrefetchReq(payload)
		if err != nil {
			return 0, nil, err
		}
		count := n.handlePrefetch(req.FileIDs, sp)
		return proto.TNodePrefetchResp, proto.PrefetchResp{Prefetched: count}.Encode(), nil

	case proto.TNodeReadAtReq:
		req, err := proto.DecodeNodeReadAtReq(payload)
		if err != nil {
			return 0, nil, err
		}
		data, fromBuffer, err := n.handleReadAt(req, sp)
		if err != nil {
			return 0, nil, err
		}
		return proto.TNodeReadAtResp,
			proto.NodeReadResp{FromBuffer: fromBuffer, Data: data}.Encode(), nil

	case proto.TNodeHintsReq:
		req, err := proto.DecodeNodeHintsReq(payload)
		if err != nil {
			return 0, nil, err
		}
		n.handleHints(req)
		return proto.TNodeHintsResp, nil, nil

	case proto.TNodeStatsReq:
		return proto.TNodeStatsResp, n.statsResp().Encode(), nil

	default:
		return 0, nil, fmt.Errorf("fs: node got unexpected message type %d", t)
	}
}

// fileName is the on-disk name for a file id.
func fileName(id int64) string { return fmt.Sprintf("f%08d.dat", id) }

// chunkName is the on-disk name for one stripe chunk of a file.
func chunkName(id int64, chunk int) string {
	return fmt.Sprintf("f%08d.c%03d.dat", id, chunk)
}

// stripeSpans splits size into chunk lengths under the configured stripe
// size; a single-element result means "store whole".
func (n *Node) stripeSpans(size int64) []int64 {
	stripe := n.cfg.StripeChunkBytes
	if stripe <= 0 || size <= stripe || len(n.data) < 2 {
		return []int64{size}
	}
	var spans []int64
	for off := int64(0); off < size; off += stripe {
		s := stripe
		if size-off < s {
			s = size - off
		}
		spans = append(spans, s)
	}
	return spans
}

// reqAttrib ties one disk operation back to the request that caused it:
// the trace and file the energy join charges, and the parent span for
// the disk-level child span. The zero value means background work
// (flushes, shutdown drains).
type reqAttrib struct {
	trace uint64
	file  string
	span  *telemetry.Span
}

// spanAttrib builds the attribution for a request span operating on one
// file. The file key is set even when tracing is off, so the per-file
// energy buckets work for untraced traffic too.
func spanAttrib(sp *telemetry.Span, fileID int64) reqAttrib {
	return reqAttrib{trace: sp.TraceID(), file: fmt.Sprintf("file:%d", fileID), span: sp}
}

// diskObserver composes the metrics transition observer with the energy
// join for one disk: each closed dwell's joules ((now - dwell start) x
// the left state's power draw) are charged to the request the disk is
// currently working for — attribution fields are owned by the nd.mu
// holder, and every transition happens under nd.mu — or to the
// background bucket when there is none. The running dwell start lives in
// the closure; Advance() between transitions does not move it, which is
// fine: the state is unchanged, so the per-dwell product is identical.
func (n *Node) diskObserver(nd *nodeDisk, base disk.Observer) disk.Observer {
	if n.cfg.Energy == nil {
		return base
	}
	model := nd.d.Model()
	arm := "data."
	if nd.isBuffer {
		arm = "buffer."
	}
	last := nd.d.StateSince()
	return func(now simtime.Time, from, to disk.PowerState) {
		if base != nil {
			base(now, from, to)
		}
		j := float64(now-last) * model.StatePower(from)
		last = now
		if from == disk.Active || from == disk.SpinningUp {
			n.cfg.Energy.Attribute(nd.curTrace, nd.curFile, arm+from.String(), j)
			nd.curSpan.AddEnergy(j)
			return
		}
		n.cfg.Energy.Attribute(0, "", arm+from.String(), j)
	}
}

// extent is one on-disk piece of a file: the disk it lives on (for
// latency/energy charging; nil for the JSON metadata files), its path,
// and its length.
type extent struct {
	nd   *nodeDisk
	path string
	size int64
}

// dataSegs is the node's one map from a file to its data-disk extents, in
// byte order: the whole file on its primary disk, or the stripe chunks
// round-robined across the spindles from there.
func (n *Node) dataSegs(entry metadata.NodeEntry) []extent {
	spans := n.stripeSpans(entry.Size)
	segs := make([]extent, len(spans))
	for i, span := range spans {
		nd := n.data[(entry.Disk+i)%len(n.data)]
		name := chunkName(int64(entry.ID), i)
		if len(spans) == 1 {
			name = fileName(int64(entry.ID))
		}
		segs[i] = extent{nd: nd, path: filepath.Join(nd.dir, name), size: span}
	}
	return segs
}

// bufferSeg is a file's single extent on the buffer disk: a prefetched
// replica or an unflushed buffered write.
func (n *Node) bufferSeg(entry metadata.NodeEntry) extent {
	return extent{nd: n.buffer, path: filepath.Join(n.buffer.dir, fileName(int64(entry.ID))), size: entry.Size}
}

// segWriter is the one commit primitive. Every file the node lands goes
// through it (RPC and stream writes, prefetch copies, write-buffer
// flushes), and so do the node manifest and the server state file
// (writeJSONAtomic). Each extent is written to a uniquely named temp
// file beside its final path, and commit renames it into place, so a
// reader that opens an extent sees the whole old or the whole new
// version and concurrent writers never share half-written state.
// Nothing is fsynced: a commit is atomic, not crash-durable.
type segWriter struct {
	segs []extent
	tmps []string // temp names of the extents begun so far
	f    *os.File // the current extent's temp file
	rem  int64    // bytes left in the current extent
}

// write lands b, splitting across extent boundaries as needed.
func (w *segWriter) write(b []byte) error {
	for len(b) > 0 {
		if w.f == nil {
			if len(w.tmps) == len(w.segs) {
				return errors.New("fs: write overruns declared size")
			}
			seg := w.segs[len(w.tmps)]
			f, err := os.CreateTemp(filepath.Dir(seg.path), filepath.Base(seg.path)+".*.tmp")
			if err != nil {
				return err
			}
			w.tmps = append(w.tmps, f.Name())
			w.f, w.rem = f, seg.size
		}
		m := min(int64(len(b)), w.rem)
		if _, err := w.f.Write(b[:m]); err != nil {
			return err
		}
		b = b[m:]
		w.rem -= m
		if w.rem == 0 {
			err := w.f.Close()
			w.f = nil
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// commit renames every completed extent into place. The temp files not
// renamed stay behind for abandon.
func (w *segWriter) commit() error {
	if w.f != nil || len(w.tmps) != len(w.segs) {
		return errors.New("fs: write ended short of declared size")
	}
	for i, tmp := range w.tmps {
		if err := os.Rename(tmp, w.segs[i].path); err != nil {
			w.tmps = w.tmps[i:]
			return err
		}
	}
	w.tmps = nil
	return nil
}

// abandon discards all uncommitted state; after a successful commit it
// does nothing.
func (w *segWriter) abandon() {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	for _, tmp := range w.tmps {
		os.Remove(tmp)
	}
	w.tmps = nil
}

// commitBytes lands data on segs in one segWriter commit.
func commitBytes(segs []extent, data []byte) error {
	w := &segWriter{segs: segs}
	defer w.abandon()
	if err := w.write(data); err != nil {
		return err
	}
	return w.commit()
}

// writeFile charges each extent's disk for a write of data (costed as a
// log append on the buffer disk), then commits data to segs. A striped
// file's extents are charged in parallel, one spindle each.
func (n *Node) writeFile(segs []extent, data []byte, ra reqAttrib) error {
	var wg sync.WaitGroup
	for _, seg := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.chargeDisk(seg.nd, seg.size, seg.nd.isBuffer, ra, "disk.write")
		}()
	}
	wg.Wait()
	return commitBytes(segs, data)
}

// readSegs reassembles a file from its extents, reading a striped file's
// extents in parallel.
func (n *Node) readSegs(segs []extent, ra reqAttrib) ([]byte, error) {
	if len(segs) == 1 {
		return n.diskRead(segs[0], ra)
	}
	parts := make([][]byte, len(segs))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	for i, seg := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i], errs[i] = n.diskRead(seg, ra)
		}()
	}
	wg.Wait()
	var out []byte
	for i := range segs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, parts[i]...)
	}
	return out, nil
}

// readFrom serves one read of entry through read and counts it as a
// buffer hit or miss. The buffer disk serves when it holds the newest
// copy (a prefetched replica or an unflushed buffered write); the data
// extents serve otherwise, and also when the buffer copy fails.
func (n *Node) readFrom(entry metadata.NodeEntry, read func(segs []extent) error) (fromBuffer bool, err error) {
	n.mu.Lock()
	_, isDirty := n.dirty[entry.ID]
	n.mu.Unlock()
	if entry.Prefetched || isDirty {
		err := read([]extent{n.bufferSeg(entry)})
		if err == nil {
			n.mu.Lock()
			n.hits++
			n.mu.Unlock()
			n.hitsC.Inc()
			return true, nil
		}
		n.logger.Printf("buffer read of file %d failed, falling back: %v", entry.ID, err)
	}
	if err := read(n.dataSegs(entry)); err != nil {
		return false, err
	}
	n.mu.Lock()
	n.misses++
	n.mu.Unlock()
	n.missesC.Inc()
	return false, nil
}

// writeTarget picks where a write of size bytes lands: the buffer disk's
// log when write buffering is on and the buffer has room, otherwise the
// data extents laid out for the new size.
func (n *Node) writeTarget(entry metadata.NodeEntry, size int64) (segs []extent, buffered bool) {
	entry.Size = size
	if n.cfg.WriteBuffer && n.bufferHasRoom(size) {
		return []extent{n.bufferSeg(entry)}, true
	}
	return n.dataSegs(entry), false
}

// afterWrite is the metadata step after a committed write of size bytes.
// A buffered write joins the dirty map and the data disks stay asleep
// until flush. A direct write supersedes any buffer-disk copy, so a stale
// prefetched replica or unflushed log entry is dropped and reads cannot
// see old content.
func (n *Node) afterWrite(entry metadata.NodeEntry, size int64, buffered bool) {
	n.mu.Lock()
	_, wasDirty := n.dirty[entry.ID]
	if buffered {
		n.dirty[entry.ID] = size
		n.bufWrites++
	} else {
		delete(n.dirty, entry.ID)
	}
	n.mu.Unlock()
	stale := !buffered && (entry.Prefetched || wasDirty)
	if buffered {
		n.bufWritesC.Inc()
	} else if stale {
		n.meta.SetPrefetched(entry.ID, false)
		entry.Prefetched = false
		os.Remove(n.bufferSeg(entry).path)
	}
	if size != entry.Size {
		entry.Size = size
		_ = n.meta.Put(entry)
	}
	if buffered || stale {
		n.saveManifest()
	}
}

func (n *Node) handleCreate(req proto.NodeCreateReq) error {
	if req.Size <= 0 {
		return fmt.Errorf("fs: create file %d with size %d", req.FileID, req.Size)
	}
	n.mu.Lock()
	diskIdx := n.nextDisk % len(n.data)
	n.nextDisk++
	n.mu.Unlock()
	// Creation order is popularity order (Section IV-A): the round-robin
	// cursor load-balances popular files across the node's data disks.
	if err := n.meta.Put(metadata.NodeEntry{
		ID:   int(req.FileID),
		Size: req.Size,
		Disk: diskIdx,
	}); err != nil {
		return err
	}
	n.saveManifest()
	return nil
}

func (n *Node) handleWrite(req proto.NodeWriteReq, sp *telemetry.Span) (bool, error) {
	entry, ok := n.meta.Lookup(int(req.FileID))
	if !ok {
		return false, fmt.Errorf("fs: write to unknown file %d", req.FileID)
	}
	if len(req.Data) == 0 {
		return false, fmt.Errorf("fs: write of file %d with no data", req.FileID)
	}
	n.noteAccess(int(req.FileID))
	size := int64(len(req.Data))
	segs, buffered := n.writeTarget(entry, size)
	if err := n.writeFile(segs, req.Data, spanAttrib(sp, req.FileID)); err != nil {
		return false, err
	}
	n.afterWrite(entry, size, buffered)
	return buffered, nil
}

func (n *Node) handleRead(fileID int64, sp *telemetry.Span) (data []byte, fromBuffer bool, err error) {
	entry, ok := n.meta.Lookup(int(fileID))
	if !ok {
		return nil, false, fmt.Errorf("fs: read of unknown file %d", fileID)
	}
	n.noteAccess(int(fileID))
	ra := spanAttrib(sp, fileID)
	fromBuffer, err = n.readFrom(entry, func(segs []extent) (err error) {
		data, err = n.readSegs(segs, ra)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return data, fromBuffer, nil
}

func (n *Node) handleDelete(fileID int64) error {
	entry, ok := n.meta.Lookup(int(fileID))
	if !ok {
		return fmt.Errorf("fs: delete of unknown file %d", fileID)
	}
	n.mu.Lock()
	delete(n.dirty, int(fileID))
	n.mu.Unlock()
	os.Remove(n.bufferSeg(entry).path)
	for _, seg := range n.dataSegs(entry) {
		os.Remove(seg.path)
	}
	n.meta.Delete(int(fileID))
	n.saveManifest()
	return nil
}

// bufferHasRoom reports whether size more bytes fit in the buffer disk's
// configured capacity (prefetched copies plus unflushed writes count
// against it).
func (n *Node) bufferHasRoom(size int64) bool {
	if n.cfg.BufferCapacityBytes <= 0 {
		return true
	}
	used := n.meta.PrefetchedBytes()
	n.mu.Lock()
	for _, sz := range n.dirty {
		used += sz
	}
	n.mu.Unlock()
	return used+size <= n.cfg.BufferCapacityBytes
}

// handlePrefetch copies each locally-known file from its data disk into
// the buffer disk (step 3 of the process flow). Unknown ids are skipped —
// the server's view may be slightly ahead of a node restart; files that
// would overflow the buffer's capacity are skipped too (the greedy
// popularity-order selection of Section IV-B).
func (n *Node) handlePrefetch(ids []int64, sp *telemetry.Span) int64 {
	var count int64
	for _, id := range ids {
		entry, ok := n.meta.Lookup(int(id))
		if !ok {
			continue
		}
		if entry.Prefetched {
			count++
			continue
		}
		if !n.bufferHasRoom(entry.Size) {
			continue
		}
		// An unflushed buffered write means the data disks do not hold
		// the newest (or any) content yet; settle it first.
		n.mu.Lock()
		_, isDirty := n.dirty[int(id)]
		n.mu.Unlock()
		if isDirty {
			n.flushOne(int(id))
			if entry, ok = n.meta.Lookup(int(id)); !ok {
				continue
			}
		}
		ra := spanAttrib(sp, id)
		data, err := n.readSegs(n.dataSegs(entry), ra)
		if err != nil {
			n.logger.Printf("prefetch read of file %d failed: %v", id, err)
			continue
		}
		if err := n.writeFile([]extent{n.bufferSeg(entry)}, data, ra); err != nil {
			n.logger.Printf("prefetch write of file %d failed: %v", id, err)
			continue
		}
		n.meta.SetPrefetched(int(id), true)
		count++
	}
	if count > 0 {
		n.saveManifest()
	}
	return count
}

// handleReadAt serves a byte range. Buffer-resident copies (prefetched
// or dirty) are sliced from the buffer disk; otherwise only the stripe
// chunks overlapping the range touch their data disks.
func (n *Node) handleReadAt(req proto.NodeReadAtReq, sp *telemetry.Span) ([]byte, bool, error) {
	entry, ok := n.meta.Lookup(int(req.FileID))
	if !ok {
		return nil, false, fmt.Errorf("fs: read of unknown file %d", req.FileID)
	}
	if req.Offset < 0 || req.Length < 0 || req.Offset+req.Length > entry.Size {
		return nil, false, fmt.Errorf("fs: range [%d,%d) outside file %d of %d bytes",
			req.Offset, req.Offset+req.Length, req.FileID, entry.Size)
	}
	if req.Length == 0 {
		return nil, entry.Prefetched, nil
	}

	ra := spanAttrib(sp, req.FileID)
	var out []byte
	fromBuffer, err := n.readFrom(entry, func(segs []extent) error {
		// Visit only the extents the range overlaps.
		out = nil
		lo, hi := req.Offset, req.Offset+req.Length
		start := int64(0)
		for _, seg := range segs {
			end := start + seg.size
			if hi > start && lo < end {
				from, to := max(lo, start)-start, min(hi, end)-start
				part, err := n.diskReadAt(seg, from, to-from, ra)
				if err != nil {
					return err
				}
				out = append(out, part...)
			}
			start = end
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, fromBuffer, nil
}

// diskReadAt performs a modeled ranged read: wake if needed, charge the
// service latency of the range (not the whole file).
func (n *Node) diskReadAt(seg extent, off, length int64, ra reqAttrib) (data []byte, err error) {
	nd := seg.nd
	sp := ra.span.Child("disk.readat")
	sp.Annotate("disk", nd.label)
	defer func() { sp.End(err) }()
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.beginWork(ra, sp)
	defer nd.endWork()
	n.wakeLocked(nd, sp)

	f, err := os.Open(seg.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data = make([]byte, length)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, err
	}
	n.serviceLocked(nd, length, false)
	return data, nil
}

// handleHints installs the server-forwarded access patterns
// (Section IV-C). Intervals arrive in real (wall-clock) seconds — the
// server observes real time — and are converted to this node's model
// time. A non-positive interval clears a file's hint.
func (n *Node) handleHints(req proto.NodeHintsReq) {
	scale := n.clock.Scale()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, h := range req.Hints {
		if h.MeanIntervalSec > 0 {
			n.hints[int(h.FileID)] = h.MeanIntervalSec * scale
		} else {
			delete(n.hints, int(h.FileID))
		}
	}
}

// noteAccess timestamps a file's most recent request (model time), the
// anchor the idle-window predictor extrapolates from.
func (n *Node) noteAccess(fileID int) {
	now := float64(n.clock.Now())
	n.mu.Lock()
	n.lastAccess[fileID] = now
	n.mu.Unlock()
}

// predictedGap estimates how long the given data disk will stay idle:
// the time until the earliest hinted next access of any file that still
// needs this disk (prefetched and dirty files are served by the buffer
// disk, so they do not pin data disks awake). It returns ok=false when no
// hints apply — the caller falls back to the reactive threshold.
func (n *Node) predictedGap(diskIdx int) (float64, bool) {
	now := float64(n.clock.Now())
	n.mu.Lock()
	defer n.mu.Unlock()
	next, have := 0.0, false
	for _, id := range n.meta.FilesOnDisk(diskIdx) {
		interval, hinted := n.hints[id]
		if !hinted {
			continue
		}
		if e, ok := n.meta.Lookup(id); ok && e.Prefetched {
			continue
		}
		if _, dirtyHere := n.dirty[id]; dirtyHere {
			continue
		}
		last, seen := n.lastAccess[id]
		if !seen {
			last = now
		}
		t := last + interval
		if t < now {
			t = now
		}
		if !have || t < next {
			next, have = t, true
		}
	}
	if !have {
		return 0, false
	}
	return next - now, true
}

// flushAll copies every dirty buffered write to its data disk (runs on
// shutdown).
func (n *Node) flushAll() {
	n.mu.Lock()
	ids := make([]int, 0, len(n.dirty))
	for id := range n.dirty {
		ids = append(ids, id)
	}
	n.mu.Unlock()
	for _, id := range ids {
		n.flushOne(id)
	}
}

func (n *Node) flushOne(id int) {
	entry, ok := n.meta.Lookup(id)
	if !ok {
		return
	}
	buf := n.bufferSeg(entry)
	data, err := n.diskRead(buf, reqAttrib{})
	if err != nil {
		n.logger.Printf("flush read of file %d failed: %v", id, err)
		return
	}
	entry.Size = int64(len(data))
	if err := n.writeFile(n.dataSegs(entry), data, reqAttrib{}); err != nil {
		n.logger.Printf("flush write of file %d failed: %v", id, err)
		return
	}
	n.mu.Lock()
	delete(n.dirty, id)
	n.mu.Unlock()
	n.flushesC.Inc()
	// Drop the buffer copy unless it doubles as a prefetched replica.
	if !entry.Prefetched {
		os.Remove(buf.path)
	}
	n.saveManifest()
}

// beginWork/endWork bracket one modeled disk operation with its request
// attribution (callers hold nd.mu). Between them, every dwell the disk
// closes in a working state is charged to ra's trace, file, and span.
func (nd *nodeDisk) beginWork(ra reqAttrib, sp *telemetry.Span) {
	nd.curTrace, nd.curFile, nd.curSpan = ra.trace, ra.file, sp
}

func (nd *nodeDisk) endWork() {
	nd.curTrace, nd.curFile, nd.curSpan = 0, "", nil
}

// diskRead performs a modeled read on the given disk: wake if needed,
// charge service latency, account energy, rearm the idle timer.
func (n *Node) diskRead(seg extent, ra reqAttrib) (data []byte, err error) {
	nd := seg.nd
	sp := ra.span.Child("disk.read")
	sp.Annotate("disk", nd.label)
	defer func() { sp.End(err) }()
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.beginWork(ra, sp)
	defer nd.endWork()
	n.wakeLocked(nd, sp)

	data, err = os.ReadFile(seg.path)
	if err != nil {
		return nil, err
	}
	n.serviceLocked(nd, int64(len(data)), false)
	return data, nil
}

// chargeDisk runs the modeled-disk accounting for size bytes on nd —
// wake a sleeping spindle, charge service time, attribute the energy —
// without performing the file I/O itself. op names the disk-level child
// span; sequential selects the buffer disk's log-append cost model.
func (n *Node) chargeDisk(nd *nodeDisk, size int64, sequential bool, ra reqAttrib, op string) {
	sp := ra.span.Child(op)
	sp.Annotate("disk", nd.label)
	defer sp.Finish()
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.beginWork(ra, sp)
	defer nd.endWork()
	n.wakeLocked(nd, sp)
	n.serviceLocked(nd, size, sequential)
}

// diskNow returns the current model time for one disk, floored at the
// disk's accounting point: with latency injection off the previous
// operation pushes the disk's clock ahead of real time (EndService is
// charged at start + modeled duration), and handing the state machine an
// earlier instant panics.
func (n *Node) diskNow(nd *nodeDisk) simtime.Time {
	now := n.clock.Now()
	if ss := nd.d.StateSince(); now < ss {
		return ss
	}
	return now
}

// wakeLocked brings a standby disk to Idle, charging spin-up latency.
// The spin-up gets a span of its own under sp, so a trace distinguishes
// a read that woke a sleeping spindle from one that found it spinning.
func (n *Node) wakeLocked(nd *nodeDisk, sp *telemetry.Span) {
	if nd.d.State() != disk.Standby {
		return
	}
	wsp := sp.Child("disk.spinup")
	wsp.Annotate("disk", nd.label)
	m := nd.d.Model()
	now := n.diskNow(nd)
	nd.d.BeginSpinUp(now)
	if n.cfg.InjectLatency {
		n.clock.Sleep(m.SpinUpSec)
	}
	end := n.clock.Now()
	if minEnd := now + simtime.Time(m.SpinUpSec); end < minEnd {
		end = minEnd
	}
	nd.d.CompleteSpinUp(end)
	wsp.Finish()
}

// serviceLocked charges one service on the disk and rearms DPM.
func (n *Node) serviceLocked(nd *nodeDisk, size int64, sequential bool) {
	m := nd.d.Model()
	dur := m.ServiceTime(size)
	if sequential {
		dur = m.SequentialTime(size)
	}
	start := n.diskNow(nd)
	nd.d.BeginService(start)
	if n.cfg.InjectLatency {
		n.clock.Sleep(dur)
	}
	end := n.clock.Now()
	if minEnd := start + simtime.Time(dur); end < minEnd {
		end = minEnd
	}
	nd.d.EndService(end, size)
	n.armTimerLocked(nd)
}

// armTimerLocked schedules the spin-down decision for a data disk. With
// server-forwarded hints predicting an idle window at least as long as
// the threshold, the disk sleeps immediately (Section IV-C); otherwise
// the reactive threshold timer applies.
func (n *Node) armTimerLocked(nd *nodeDisk) {
	if nd.isBuffer || n.cfg.IdleThresholdSec <= 0 {
		return // the buffer disk must stay available (Section III-C)
	}
	if nd.timer != nil {
		nd.timer.Stop()
	}
	delay := n.cfg.IdleThresholdSec
	if gap, ok := n.predictedGap(nd.index); ok && gap >= n.cfg.IdleThresholdSec {
		delay = 0.001 // effectively immediate, off the request path
	}
	nd.timer = time.AfterFunc(n.clock.RealDuration(delay), func() {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		if nd.d.State() != disk.Idle {
			return
		}
		m := nd.d.Model()
		now := n.diskNow(nd)
		nd.d.BeginSpinDown(now)
		if n.cfg.InjectLatency {
			n.clock.Sleep(m.SpinDownSec)
		}
		end := n.clock.Now()
		if minEnd := now + simtime.Time(m.SpinDownSec); end < minEnd {
			end = minEnd
		}
		nd.d.CompleteSpinDown(end)
	})
}

// statsResp snapshots every disk's accounting.
func (n *Node) statsResp() proto.StatsResp {
	var resp proto.StatsResp
	snapshot := func(nd *nodeDisk) {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		nd.d.Advance(n.diskNow(nd))
		st := nd.d.Stats()
		resp.Disks = append(resp.Disks, proto.DiskStats{
			Name:       st.Name,
			EnergyJ:    st.EnergyJ,
			SpinUps:    int64(st.SpinUps),
			SpinDowns:  int64(st.SpinDowns),
			Requests:   st.Requests,
			BytesMoved: st.BytesMoved,
			State:      nd.d.State().String(),
		})
	}
	snapshot(n.buffer)
	for _, nd := range n.data {
		snapshot(nd)
	}
	if reg := n.cfg.Metrics; reg != nil {
		// The registry already mirrors the buffer counters (and carries
		// the per-op and disk-transition telemetry on top), so export it
		// wholesale.
		for _, name := range reg.CounterNames() {
			resp.Counters = append(resp.Counters, proto.CounterStat{
				Name:  name,
				Value: reg.Counter(name).Value(),
			})
		}
	} else {
		hits, misses, bufWrites := n.Counters()
		resp.Counters = []proto.CounterStat{
			{Name: "node.buffer.hits", Value: hits},
			{Name: "node.buffer.misses", Value: misses},
			{Name: "node.buffer.writes", Value: bufWrites},
		}
	}
	return resp
}

// Counters returns the node's hit/miss/buffered-write counters (primarily
// for tests and the stats CLI).
func (n *Node) Counters() (hits, misses, bufferedWrites int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hits, n.misses, n.bufWrites
}

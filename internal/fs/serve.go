package fs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// defaultConnWorkers bounds how many requests from one connection may be
// in flight in handler goroutines at once. The bound is per connection:
// one greedy pipelining peer cannot starve the daemon, and Close still
// drains quickly. 128 (up from the original 32) because the load harness
// showed tens of logical clients multiplexed onto one connection stalling
// behind the cap long before the node's disks were busy (DESIGN.md §21).
const defaultConnWorkers = 128

// defaultConnStreams bounds how many streams one connection may hold open
// at once. Stream handlers are deliberately NOT drawn from the RPC worker
// pool: a handler parks in waitCredit for as long as its peer dawdles,
// and the demux read loop must never block on slot acquisition — it has
// to keep reading inbound credit frames or every running stream on the
// connection wedges behind the very loop that would feed it. Excess
// opens are rejected with a typed error; the connection stays healthy.
const defaultConnStreams = 64

// connLimits carries the per-connection concurrency caps into
// serveFrames. The zero value means defaults.
type connLimits struct {
	workers int // concurrent RPC handlers (default defaultConnWorkers)
	streams int // concurrent open streams (default defaultConnStreams)
}

func (l connLimits) withDefaults() connLimits {
	if l.workers <= 0 {
		l.workers = defaultConnWorkers
	}
	if l.streams <= 0 {
		l.streams = defaultConnStreams
	}
	return l
}

// acceptConns runs one accept loop on ln, handing each connection to
// accept. Transient errors — file-table exhaustion, handshakes aborted
// under heavy fan-in — are retried with capped exponential backoff
// instead of silently killing the listener (the original loop returned
// on any error, so one EMFILE burst left a daemon alive but deaf); only
// the listener's own closure ends the loop. Several acceptConns
// goroutines may share one listener: Accept is safe to call
// concurrently, and parallel loops keep the post-accept bookkeeping
// (connection registration, handler spawn) off the accept rate's
// critical path.
func acceptConns(ln net.Listener, logf func(format string, args ...any), accept func(net.Conn)) {
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if delay == 0 {
				delay = 5 * time.Millisecond
			} else if delay *= 2; delay > time.Second {
				delay = time.Second
			}
			logf("accept: %v (retrying in %v)", err, delay)
			time.Sleep(delay)
			continue
		}
		delay = 0
		accept(conn)
	}
}

// handlerFunc handles one decoded request and returns the response
// frame. sc is the trace context extracted from the frame (zero when
// untraced). A returned error becomes a TError frame; the connection
// stays up either way (malformed payloads answer with an error rather
// than a hangup).
type handlerFunc func(t proto.Type, payload []byte, sc telemetry.SpanContext) (proto.Type, []byte, error)

// streamHandlerFunc serves one open stream (DESIGN.md §19): t is the
// opening frame type (TStreamReadReq or TStreamWriteReq), payload its
// StreamOpenReq body, and st the stream's server half. The handler owns
// the stream until it returns; every exit path must have sent a terminal
// frame (end or abort) unless the connection itself is dead.
type streamHandlerFunc func(t proto.Type, payload []byte, sc telemetry.SpanContext, st *srvStream)

// serveFrames drives one accepted connection until it dies. The peer
// must open with the 4-byte EEV2 preface; any other opening closes the
// connection. Requests are dispatched to a bounded pool of worker
// goroutines, so many round trips from one peer are serviced
// concurrently; responses carry the request's id and are written whole
// under a per-connection mutex (ordered, never interleaved), in whatever
// order the handlers finish. Stream opens spawn a dedicated handler
// goroutine outside the worker pool (bounded by lim.streams instead), and
// later frames of an open stream are routed to it by id.
//
// writeTimeout bounds each response write so a stalled peer cannot pin
// a handler goroutine. shandle may be nil: stream opens then answer with
// a typed TError and the connection stays healthy (the metadata server
// does not serve file bytes).
func serveFrames(conn net.Conn, writeTimeout time.Duration, handle handlerFunc, shandle streamHandlerFunc, lim connLimits) {
	var first [4]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil || binary.BigEndian.Uint32(first[:]) != proto.MagicV2 {
		return
	}
	dc := &deadlineConn{Conn: conn, writeTimeout: writeTimeout}
	serveV2(conn, dc, handle, shandle, lim.withDefaults())
}

// srvMsg is one inbound frame of a server-side stream. Data payloads are
// pooled chunk buffers; the consumer returns them via proto.PutChunk.
type srvMsg struct {
	t       proto.Type
	payload []byte
}

// errStreamConnDead reports that the connection under a server-side
// stream died while its handler was mid-transfer.
var errStreamConnDead = errors.New("fs: stream connection closed")

// srvStream is the server half of one open stream: the handler's window
// onto the shared connection. Inbound frames for the stream's id arrive
// on recv (bounded; overflow is a peer credit violation that tears the
// connection down); outbound frames go through the connection's shared
// write mutex. credits tracks the send allowance granted by the peer.
// release frees the stream's slot in the connection's stream cap.
type srvStream struct {
	id      uint32
	w       io.Writer
	wmu     *sync.Mutex
	conn    net.Conn
	recv    chan srvMsg
	done    chan struct{}
	release func()

	mu      sync.Mutex
	err     error
	credits int
}

func newSrvStream(id uint32, w io.Writer, wmu *sync.Mutex, conn net.Conn, release func()) *srvStream {
	return &srvStream{
		id:      id,
		w:       w,
		wmu:     wmu,
		conn:    conn,
		release: release,
		// The queue must absorb a full credit window of data frames plus
		// interleaved control frames; overflow means the peer ignored the
		// window we granted.
		recv: make(chan srvMsg, proto.MaxStreamWindow+16),
		done: make(chan struct{}),
	}
}

// deliver routes one inbound frame to the handler. It reports false on
// queue overflow (a flow-control violation; the caller tears the
// connection down).
func (st *srvStream) deliver(t proto.Type, payload []byte) bool {
	select {
	case st.recv <- srvMsg{t: t, payload: payload}:
		return true
	default:
		if t == proto.TDataFrame {
			proto.PutChunk(payload)
		}
		return false
	}
}

// fail marks the stream dead (connection-level fault) and wakes the
// handler. Idempotent.
func (st *srvStream) fail(err error) {
	st.mu.Lock()
	if st.err != nil {
		st.mu.Unlock()
		return
	}
	st.err = err
	st.mu.Unlock()
	close(st.done)
}

// fault returns the connection-level error (nil while healthy).
func (st *srvStream) fault() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.err
}

// drain empties the inbound queue, returning pooled chunks. Called after
// the handler exits, so late frames never leak buffers.
func (st *srvStream) drain() {
	for {
		select {
		case msg := <-st.recv:
			if msg.t == proto.TDataFrame {
				proto.PutChunk(msg.payload)
			}
		default:
			return
		}
	}
}

// recvMsg blocks for the stream's next inbound frame: queued frames
// first, then the connection's death or the deadline. A deadline expiry
// closes the connection — a peer that stops mid-stream would otherwise
// pin a worker slot forever.
func (st *srvStream) recvMsg(timeout time.Duration) (srvMsg, error) {
	select {
	case msg := <-st.recv:
		return msg, nil
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case msg := <-st.recv:
		return msg, nil
	case <-st.done:
		select {
		case msg := <-st.recv:
			return msg, nil
		default:
		}
		if err := st.fault(); err != nil {
			return srvMsg{}, err
		}
		return srvMsg{}, errStreamConnDead
	case <-timer.C:
		st.conn.Close()
		return srvMsg{}, fmt.Errorf("fs: stream %d stalled: no frame within %v", st.id, timeout)
	}
}

// sendFrame writes one outbound frame under the connection's write
// mutex. A write error closes the connection (matching the RPC path).
func (st *srvStream) sendFrame(t proto.Type, payload []byte) error {
	st.wmu.Lock()
	err := proto.WriteFrameID(st.w, t, st.id, payload)
	st.wmu.Unlock()
	if err != nil {
		st.conn.Close()
	}
	return err
}

// sendData sends one data chunk, consuming a send credit; it blocks
// waiting for replenishment when the window is exhausted.
func (st *srvStream) sendData(chunk []byte, timeout time.Duration) error {
	if err := st.waitCredit(timeout); err != nil {
		return err
	}
	st.mu.Lock()
	st.credits--
	st.mu.Unlock()
	return st.sendFrame(proto.TDataFrame, chunk)
}

// grantCredits seeds the stream's send window (reads: from the open
// request's negotiated window).
func (st *srvStream) grantCredits(n int) {
	st.mu.Lock()
	st.credits += n
	st.mu.Unlock()
}

// waitCredit consumes inbound control frames until a send credit is
// available. A peer abort surfaces as the decoded remote error so the
// handler can stop reading the disk immediately.
func (st *srvStream) waitCredit(timeout time.Duration) error {
	for {
		st.mu.Lock()
		ok := st.credits > 0
		st.mu.Unlock()
		if ok {
			return nil
		}
		msg, err := st.recvMsg(timeout)
		if err != nil {
			return err
		}
		switch msg.t {
		case proto.TStreamCredit:
			c, derr := proto.DecodeStreamCredit(msg.payload)
			if derr != nil {
				st.conn.Close()
				return derr
			}
			st.grantCredits(int(c.N))
		case proto.TStreamAbort:
			return decodeStreamAbort(msg.payload)
		default:
			st.conn.Close()
			return fmt.Errorf("fs: unexpected frame type %d on read stream", msg.t)
		}
	}
}

// sendEnd terminates the stream cleanly. The stream's slot is freed
// before the terminal frame goes out, so a peer that opens its next
// stream on seeing the end is never refused for the one that just ended.
func (st *srvStream) sendEnd(buffered bool) error {
	st.release()
	return st.sendFrame(proto.TStreamEnd, proto.StreamEnd{Buffered: buffered}.Encode())
}

// sendAbort terminates the stream with a typed failure; the connection
// and its other streams stay healthy. Like sendEnd, it frees the slot
// first.
func (st *srvStream) sendAbort(err error) {
	st.release()
	_ = st.sendFrame(proto.TStreamAbort, errorPayload(err))
}

// decodeStreamAbort turns a peer's abort payload into an error.
func decodeStreamAbort(payload []byte) error {
	em, derr := proto.DecodeErrorMsg(payload)
	if derr != nil {
		return fmt.Errorf("fs: undecodable stream abort: %w", derr)
	}
	return fmt.Errorf("fs: stream aborted by peer: %s", em.Msg)
}

func serveV2(conn net.Conn, w io.Writer, handle handlerFunc, shandle streamHandlerFunc, lim connLimits) {
	var (
		wg      sync.WaitGroup
		writeMu sync.Mutex
		// One handler goroutine per in-flight request, bounded by a slot
		// semaphore. (A persistent worker pool was tried and measured
		// ~20% slower on the load benchmarks: every hand-off through a
		// shared channel pays a contended wake-up, while a fresh
		// goroutine usually runs on the spawning P's runnext slot.)
		slots = make(chan struct{}, lim.workers)

		smu     sync.Mutex
		streams = make(map[uint32]*srvStream)
	)
	addStream := func(st *srvStream) (ok, dup bool) {
		smu.Lock()
		defer smu.Unlock()
		if _, d := streams[st.id]; d {
			return false, true
		}
		if len(streams) >= lim.streams {
			return false, false
		}
		streams[st.id] = st
		return true, false
	}
	getStream := func(id uint32) *srvStream {
		smu.Lock()
		defer smu.Unlock()
		return streams[id]
	}
	dropStream := func(id uint32) {
		smu.Lock()
		delete(streams, id)
		smu.Unlock()
	}

	for {
		t, id, n, err := proto.ReadFrameHeader(conn)
		if err != nil {
			break
		}
		base := t &^ proto.FlagTraced
		switch base {
		case proto.TDataFrame, proto.TStreamCredit, proto.TStreamEnd, proto.TStreamAbort:
			st := getStream(id)
			if st == nil {
				// Late frame for a stream whose handler already finished
				// (e.g. an abort racing our end): discard, keep framing.
				if _, err := io.CopyN(io.Discard, conn, int64(n)); err != nil {
					goto out
				}
				continue
			}
			var payload []byte
			if base == proto.TDataFrame {
				payload = proto.GetChunk(n)
			} else {
				payload = make([]byte, n)
			}
			if _, err := io.ReadFull(conn, payload); err != nil {
				if base == proto.TDataFrame {
					proto.PutChunk(payload)
				}
				goto out
			}
			if !st.deliver(base, payload) {
				// Credit violation: the peer flooded past the granted
				// window. The connection can no longer be trusted.
				goto out
			}
		case proto.TStreamReadReq, proto.TStreamWriteReq:
			payload := make([]byte, n)
			if _, err := io.ReadFull(conn, payload); err != nil {
				goto out
			}
			t, payload, sc, herr := proto.ExtractContext(t, payload)
			if herr != nil {
				writeMu.Lock()
				werr := proto.WriteFrameID(w, proto.TError, id, errorPayload(herr))
				writeMu.Unlock()
				if werr != nil {
					goto out
				}
				continue
			}
			if shandle == nil {
				// This daemon has no data plane (the metadata server):
				// reject the open with a typed error; the connection and
				// its other round trips stay healthy.
				writeMu.Lock()
				werr := proto.WriteFrameID(w, proto.TError, id,
					errorPayload(fmt.Errorf("unexpected message type %d", t)))
				writeMu.Unlock()
				if werr != nil {
					goto out
				}
				continue
			}
			st := newSrvStream(id, w, &writeMu, conn, func() { dropStream(id) })
			ok, dup := addStream(st)
			if dup {
				// Duplicate open for a live id: protocol violation.
				goto out
			}
			if !ok {
				// Stream cap: reject the open, keep the connection (and
				// every running stream on it) healthy.
				writeMu.Lock()
				werr := proto.WriteFrameID(w, proto.TError, id,
					errorPayload(fmt.Errorf("%w: too many open streams on one connection", ErrNodeUnavailable)))
				writeMu.Unlock()
				if werr != nil {
					goto out
				}
				continue
			}
			wg.Add(1)
			go func(t proto.Type, payload []byte, sc telemetry.SpanContext, st *srvStream) {
				defer wg.Done()
				shandle(t, payload, sc, st)
				dropStream(st.id)
				st.drain()
			}(t, payload, sc, st)
		default:
			payload := make([]byte, n)
			if _, err := io.ReadFull(conn, payload); err != nil {
				goto out
			}
			slots <- struct{}{}
			wg.Add(1)
			go func(t proto.Type, id uint32, payload []byte) {
				defer wg.Done()
				defer func() { <-slots }()
				t, payload, sc, herr := proto.ExtractContext(t, payload)
				var rt proto.Type
				var rp []byte
				if herr == nil {
					rt, rp, herr = handle(t, payload, sc)
				}
				if herr != nil {
					rt, rp = proto.TError, errorPayload(herr)
				}
				writeMu.Lock()
				werr := proto.WriteFrameID(w, rt, id, rp)
				writeMu.Unlock()
				if werr != nil {
					// A response we cannot deliver poisons the stream for
					// the peer anyway; close so the read loop exits too.
					conn.Close()
				}
			}(t, id, payload)
		}
	}
out:
	conn.Close()
	// Fail every open stream so mid-transfer handlers unblock, then wait
	// for all workers (RPC and stream) to finish.
	smu.Lock()
	doomed := make([]*srvStream, 0, len(streams))
	for _, st := range streams {
		doomed = append(doomed, st)
	}
	smu.Unlock()
	for _, st := range doomed {
		st.fail(errStreamConnDead)
	}
	wg.Wait()
}

// The node's streaming data plane (DESIGN.md §19): large files move as
// chunked TDataFrames through one pooled buffer per stream instead of a
// whole-payload response, so a 64 MB read costs O(chunk) node memory.
// Disk latency and energy are charged through the same modeled-disk
// path as the RPC handlers — a streamed read of a sleeping spindle still
// pays (and attributes) the spin-up.
package fs

import (
	"fmt"
	"io"
	"os"
	"time"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// dispatchStream serves one opened stream end to end. Every exit path
// sends a terminal frame: sendEnd on success (inside the handlers),
// sendAbort carrying the typed error otherwise — the client side relies
// on that terminal frame to retire early-closed stream ids.
func (n *Node) dispatchStream(t proto.Type, payload []byte, sc telemetry.SpanContext, st *srvStream) {
	start := time.Now()
	sp := n.cfg.Tracer.StartRemote(sc, "node", "node."+opName(t))
	req, err := proto.DecodeStreamOpenReq(payload)
	if err == nil {
		switch t {
		case proto.TStreamReadReq:
			err = n.handleStreamRead(req, sp, st)
		case proto.TStreamWriteReq:
			err = n.handleStreamWrite(req, sp, st)
		default:
			err = fmt.Errorf("fs: node got unexpected stream open type %d", t)
		}
	}
	if err != nil {
		st.sendAbort(err)
	}
	n.met.observe(t, time.Since(start), err)
	sp.End(err)
}

// handleStreamRead streams one file to the peer: open response first,
// then data chunks under the peer-granted credit window, then a clean
// end. One pooled chunk buffer is resident per stream regardless of file
// size.
func (n *Node) handleStreamRead(req proto.StreamOpenReq, sp *telemetry.Span, st *srvStream) error {
	entry, ok := n.meta.Lookup(int(req.FileID))
	if !ok {
		return fmt.Errorf("fs: read of unknown file %d", req.FileID)
	}
	n.noteAccess(int(req.FileID))
	ra := spanAttrib(sp, req.FileID)

	// Open every extent before the first byte moves. An open file keeps
	// the version it opened even when a writer renames a new one into
	// place, so each extent streams whole; its length comes from the
	// opened file, not from the possibly older metadata entry.
	var segs []extent
	var files []*os.File
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
		files = nil
	}
	defer closeAll()
	fromBuffer, err := n.readFrom(entry, func(src []extent) error {
		closeAll() // a failed buffer attempt's files
		segs = src
		for i := range src {
			f, err := os.Open(src[i].path)
			if err != nil {
				return err
			}
			files = append(files, f)
			fi, err := f.Stat()
			if err != nil {
				return err
			}
			src[i].size = fi.Size()
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Charge the modeled disks up front (spin-up + full service time, as
	// the RPC read does), then move the bytes at wire speed.
	size := int64(0)
	for _, seg := range segs {
		n.chargeDisk(seg.nd, seg.size, false, ra, "disk.stream.read")
		size += seg.size
	}

	chunk := proto.NegotiateChunk(req.ChunkSize, n.cfg.StreamChunkBytes)
	window := proto.ClampStreamWindow(req.Window)
	st.grantCredits(window)
	resp := proto.StreamOpenResp{
		FromBuffer: fromBuffer,
		Size:       size,
		ChunkSize:  uint32(chunk),
		Window:     uint32(window),
	}
	if err := st.sendFrame(proto.TStreamOpenResp, resp.Encode()); err != nil {
		return err
	}

	buf := proto.GetChunk(chunk)
	defer proto.PutChunk(buf)
	for i, seg := range segs {
		for remaining := seg.size; remaining > 0; {
			m := min(int64(chunk), remaining)
			if _, err := io.ReadFull(files[i], buf[:m]); err != nil {
				return fmt.Errorf("fs: file %d truncated on disk: %w", req.FileID, err)
			}
			if err := st.sendData(buf[:m], proto.StreamStallTimeout(n.cfg.WriteTimeout)); err != nil {
				return err
			}
			remaining -= m
			n.streamChunksC.Inc()
			n.streamBytesC.Add(m)
		}
	}
	sp.Annotate("stream.bytes", fmt.Sprint(size))
	return st.sendEnd(false)
}

// handleStreamWrite receives one file from the peer under a node-granted
// credit window and commits it with the same placement and metadata
// semantics as the RPC write path (write-buffer absorption, stale-mirror
// invalidation, size updates).
func (n *Node) handleStreamWrite(req proto.StreamOpenReq, sp *telemetry.Span, st *srvStream) error {
	if req.Size <= 0 {
		return fmt.Errorf("fs: stream write of file %d with size %d", req.FileID, req.Size)
	}
	entry, ok := n.meta.Lookup(int(req.FileID))
	if !ok {
		return fmt.Errorf("fs: write to unknown file %d", req.FileID)
	}
	n.noteAccess(int(req.FileID))
	ra := spanAttrib(sp, req.FileID)
	segs, buffered := n.writeTarget(entry, req.Size)
	for _, seg := range segs {
		n.chargeDisk(seg.nd, seg.size, seg.nd.isBuffer, ra, "disk.stream.write")
	}

	chunk := proto.NegotiateChunk(req.ChunkSize, n.cfg.StreamChunkBytes)
	window := proto.ClampStreamWindow(req.Window)
	resp := proto.StreamOpenResp{
		FromBuffer: buffered,
		Size:       req.Size,
		ChunkSize:  uint32(chunk),
		Window:     uint32(window),
	}
	if err := st.sendFrame(proto.TStreamOpenResp, resp.Encode()); err != nil {
		return err
	}

	w := &segWriter{segs: segs}
	defer w.abandon() // no-op once committed
	received := int64(0)
	sinceCredit := 0
	for {
		msg, err := st.recvMsg(proto.StreamStallTimeout(n.cfg.WriteTimeout))
		if err != nil {
			return err
		}
		switch msg.t {
		case proto.TDataFrame:
			m := int64(len(msg.payload))
			if received+m > req.Size {
				proto.PutChunk(msg.payload)
				return fmt.Errorf("fs: stream write of file %d overran declared size %d", req.FileID, req.Size)
			}
			werr := w.write(msg.payload)
			proto.PutChunk(msg.payload)
			if werr != nil {
				return werr
			}
			received += m
			n.streamChunksC.Inc()
			n.streamBytesC.Add(m)
			// Replenish the sender's window as chunks are consumed.
			sinceCredit++
			if sinceCredit >= window/2 || sinceCredit >= window {
				if err := st.sendFrame(proto.TStreamCredit, proto.StreamCredit{N: uint32(sinceCredit)}.Encode()); err != nil {
					return err
				}
				sinceCredit = 0
			}
		case proto.TStreamEnd:
			if received != req.Size {
				return fmt.Errorf("fs: stream write of file %d ended at %d of %d bytes",
					req.FileID, received, req.Size)
			}
			if err := w.commit(); err != nil {
				return err
			}
			n.afterWrite(entry, req.Size, buffered)
			sp.Annotate("stream.bytes", fmt.Sprint(received))
			return st.sendEnd(buffered)
		case proto.TStreamAbort:
			return decodeStreamAbort(msg.payload)
		default:
			st.conn.Close()
			return fmt.Errorf("fs: unexpected frame type %d on write stream", msg.t)
		}
	}
}

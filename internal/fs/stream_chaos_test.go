package fs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"eevfs/internal/faultnet"
	"eevfs/internal/proto"
)

// TestChaosStreamKillFailsAllTyped: a mid-stream connection kill must
// fail every in-flight stream on that connection with a typed
// *proto.TransportError (never a hang, never a silent short read), leak
// no goroutines (chaosCluster registers leak.Check), and a post-heal
// OpenRead must redial and deliver the full content.
func TestChaosStreamKillFailsAllTyped(t *testing.T) {
	cl, _, nodes, _, clientNet := chaosCluster(t, 1)
	content := patternedContent(21, 512<<10)
	if err := cl.Create("k.dat", content); err != nil {
		t.Fatal(err)
	}

	// Four concurrent streams, all multiplexed on the single client→node
	// connection, each parked mid-transfer on a tiny chunk schedule.
	const streams = 4
	readers := make([]*FileReader, streams)
	for i := range readers {
		r, err := cl.OpenRead("k.dat", StreamOptions{ChunkBytes: 4 << 10, Window: 2})
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = r
		if _, err := io.ReadFull(r, make([]byte, 8<<10)); err != nil {
			t.Fatalf("stream %d priming read: %v", i, err)
		}
	}

	// Kill the connection on its next byte in either direction.
	clientNet.SetFault(nodes[0].Addr(), faultnet.Fault{DropAfterBytes: 1})

	for i, r := range readers {
		_, err := io.ReadAll(r)
		if err == nil {
			t.Fatalf("stream %d finished through a killed connection", i)
		}
		var te *proto.TransportError
		if !errors.As(err, &te) {
			t.Fatalf("stream %d error = %v, want *proto.TransportError", i, err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("stream %d close after fault: %v", i, err)
		}
	}

	// Heal: the next open redials a fresh connection and the stream
	// delivers the file byte-identical.
	clientNet.Heal(nodes[0].Addr())
	var buf bytes.Buffer
	if _, _, err := cl.ReadTo("k.dat", &buf); err != nil {
		t.Fatalf("post-heal stream: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("post-heal stream content mismatch")
	}
}

// TestChaosStreamCorruptionFailsTyped: wire corruption mid-stream mangles
// the frame headers, which must poison the connection and surface as a
// typed transport error on the open stream — corrupted framing is never
// delivered as data.
func TestChaosStreamCorruptionFailsTyped(t *testing.T) {
	cl, _, nodes, _, clientNet := chaosCluster(t, 1)
	content := patternedContent(22, 256<<10)
	if err := cl.Create("c.dat", content); err != nil {
		t.Fatal(err)
	}

	r, err := cl.OpenRead("c.dat", StreamOptions{ChunkBytes: 4 << 10, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(r, make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}

	// Flip every byte from here on: the next frame header the client
	// parses is garbage.
	clientNet.SetFault(nodes[0].Addr(), faultnet.Fault{CorruptEvery: 1})
	_, err = io.ReadAll(r)
	if err == nil {
		t.Fatal("stream delivered corrupted frames as clean EOF")
	}
	var te *proto.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("corruption error = %v, want *proto.TransportError", err)
	}
	r.Close()

	clientNet.Heal(nodes[0].Addr())
	var buf bytes.Buffer
	if _, _, err := cl.ReadTo("c.dat", &buf); err != nil {
		t.Fatalf("post-heal stream: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("post-heal stream content mismatch")
	}
}

// TestChaosStreamWriteKillLeavesFileIntact: killing the connection in
// the middle of a streamed write must fail the writer typed and leave
// the previous file content untouched (a commit renames whole extents
// into place, so a half-written file is never exposed).
func TestChaosStreamWriteKillLeavesFileIntact(t *testing.T) {
	cl, _, nodes, _, clientNet := chaosCluster(t, 1)
	old := patternedContent(23, 64<<10)
	if err := cl.Create("w.dat", old); err != nil {
		t.Fatal(err)
	}

	w, err := cl.OpenWrite("w.dat", 512<<10, StreamOptions{ChunkBytes: 4 << 10, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 8<<10)); err != nil {
		t.Fatal(err)
	}
	clientNet.SetFault(nodes[0].Addr(), faultnet.Fault{DropAfterBytes: 1})
	werr := func() error {
		for i := 0; i < 128; i++ {
			if _, err := w.Write(make([]byte, 4<<10)); err != nil {
				return err
			}
		}
		return w.Close()
	}()
	if werr == nil {
		t.Fatal("streamed write committed through a killed connection")
	}
	var te *proto.TransportError
	if !errors.As(werr, &te) {
		t.Fatalf("write fault error = %v, want *proto.TransportError", werr)
	}
	w.Close()

	clientNet.Heal(nodes[0].Addr())
	got, _, err := cl.Read("w.dat")
	if err != nil {
		t.Fatalf("read after aborted streamed write: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("aborted streamed write exposed partial content")
	}
}

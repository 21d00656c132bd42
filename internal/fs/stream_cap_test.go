package fs

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"eevfs/internal/proto"
)

// TestStreamConnCapRejectedTyped pins the per-connection stream bound
// and — the part that matters — that hitting it can never wedge the
// connection's demux loop: stream handlers live outside the RPC worker
// pool, so the loop keeps reading credit frames and every admitted
// stream still finishes while excess opens are rejected with a typed
// ErrNodeUnavailable.
func TestStreamConnCapRejectedTyped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := patternedContent(99, 64<<10)
	if err := cl.Create("capped", content); err != nil {
		t.Fatal(err)
	}

	// Window-1, min-chunk streams: each node handler parks in waitCredit
	// long before its 64 KB is sent, so the streams pile up server-side.
	opts := StreamOptions{ChunkBytes: proto.MinStreamChunk, Window: 1}
	var open []*FileReader
	defer func() {
		for _, r := range open {
			r.Close()
		}
	}()
	rejected := 0
	for i := 0; i < defaultConnStreams+6; i++ {
		r, err := cl.OpenRead("capped", opts)
		if err != nil {
			if !errors.Is(err, ErrNodeUnavailable) {
				t.Fatalf("open %d: err = %v, want ErrNodeUnavailable", i, err)
			}
			rejected++
			continue
		}
		open = append(open, r)
	}
	if rejected == 0 {
		t.Fatalf("%d window-1 streams on one connection never hit the cap", defaultConnStreams+6)
	}
	if len(open) != defaultConnStreams {
		t.Fatalf("%d streams admitted, want %d", len(open), defaultConnStreams)
	}

	// The demux loop must still be feeding the admitted streams: drain
	// one end to end, credits and all, and check the bytes.
	got, err := io.ReadAll(open[0])
	if err != nil {
		t.Fatalf("reading an admitted stream at the cap: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("admitted stream returned %d bytes, want %d", len(got), len(content))
	}
	open[0].Close()

	// Freeing one slot makes the next open admissible again, and plain
	// round trips on the same connection never stopped working.
	r, err := cl.OpenRead("capped", opts)
	if err != nil {
		t.Fatalf("open after a slot freed: %v", err)
	}
	open[0] = r
	if _, _, err := cl.Read("capped"); err != nil {
		t.Fatalf("RPC read with the connection at the stream cap: %v", err)
	}
}

// errAfterReader fails with errBoom once n bytes have been produced.
type errAfterReader struct{ n int }

var errBoom = errors.New("reader exploded")

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errBoom
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = 0xAB
	}
	r.n -= len(p)
	return len(p), nil
}

// TestWriteFromSourceFailureLeavesFileIntact pins WriteFrom's failure
// path: the source reader dying mid-copy surfaces its error and the
// file's previous content stays visible (a commit renames whole
// extents into place, so the partial write is never exposed).
func TestWriteFromSourceFailureLeavesFileIntact(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	old := patternedContent(7, 4<<10)
	if err := cl.Create("wf.dat", old); err != nil {
		t.Fatal(err)
	}
	_, err := cl.WriteFrom("wf.dat", 256<<10, &errAfterReader{n: 8 << 10})
	if err == nil {
		t.Fatal("WriteFrom with a dying source reported success")
	}
	got, _, err := cl.Read("wf.dat")
	if err != nil {
		t.Fatalf("read after failed WriteFrom: %v", err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("failed WriteFrom disturbed the old content (%d bytes, want %d)", len(got), len(old))
	}
}

// TestReadToMissingFileTyped pins ReadTo's open-failure path: the
// sentinel classification survives the streaming wrapper.
func TestReadToMissingFileTyped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	var sink bytes.Buffer
	_, _, err := cl.ReadTo("no-such-file", &sink)
	if !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("err = %v, want ErrFileNotFound", err)
	}
	if sink.Len() != 0 {
		t.Fatalf("ReadTo wrote %d bytes for a missing file", sink.Len())
	}
}

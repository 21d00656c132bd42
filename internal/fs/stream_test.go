package fs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
)

// patternedContent builds size bytes whose value at offset i is a
// deterministic function of (seed, i) — unique per file, so a chunk
// delivered to the wrong stream or landed at the wrong offset changes
// the bytes and is caught by comparison.
func patternedContent(seed int64, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte((seed*31 + int64(i)) * 2654435761 >> 16)
	}
	return b
}

func TestStreamReadRoundTrip(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	content := patternedContent(1, 300<<10) // > one default chunk
	if err := cl.Create("big.dat", content); err != nil {
		t.Fatal(err)
	}
	r, err := cl.OpenRead("big.dat", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != int64(len(content)) {
		t.Fatalf("Size = %d, want %d", r.Size(), len(content))
	}
	if r.FromBuffer() {
		t.Fatal("unprefetched stream claimed to come from the buffer disk")
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("streamed content mismatch")
	}
}

func TestStreamWriteRoundTrip(t *testing.T) {
	cl, _, _ := testCluster(t, 2, nil)
	if err := cl.Create("w.dat", []byte("placeholder")); err != nil {
		t.Fatal(err)
	}
	content := patternedContent(2, 700<<10)
	buffered, err := cl.WriteFrom("w.dat", int64(len(content)), bytes.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if buffered {
		t.Fatal("buffered=true with the write buffer disabled")
	}
	// Both paths must see the streamed bytes: the RPC read and a second
	// stream.
	got, _, err := cl.Read("w.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("RPC read after streamed write mismatch")
	}
	var sb bytes.Buffer
	if _, _, err := cl.ReadTo("w.dat", &sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), content) {
		t.Fatal("streamed read after streamed write mismatch")
	}
}

func TestStreamReadFromBufferAfterPrefetch(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := patternedContent(3, 64<<10)
	if err := cl.Create("hot.dat", content); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("hot.dat"); err != nil { // popularity signal
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, fromBuffer, err := cl.ReadTo("hot.dat", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer {
		t.Fatal("prefetched file streamed from the data disk")
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("buffered stream content mismatch")
	}
}

// TestStreamWriteInvalidatesMirror pins the mirror-invalidation
// interplay: a streamed write to a prefetched file must drop the stale
// buffer-disk replica, exactly like the RPC write path.
func TestStreamWriteInvalidatesMirror(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	old := patternedContent(4, 32<<10)
	if err := cl.Create("m.dat", old); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Read("m.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Prefetch(1); err != nil {
		t.Fatal(err)
	}
	fresh := patternedContent(5, 48<<10)
	if _, err := cl.WriteFrom("m.dat", int64(len(fresh)), bytes.NewReader(fresh)); err != nil {
		t.Fatal(err)
	}
	got, fromBuffer, err := cl.Read("m.dat")
	if err != nil {
		t.Fatal(err)
	}
	if fromBuffer {
		t.Fatal("read after streamed write served a stale buffer mirror")
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("read after streamed write returned old content")
	}
}

func TestStreamWriteBuffered(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) { cfg.WriteBuffer = true })
	if err := cl.Create("b.dat", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	content := patternedContent(6, 100<<10)
	buffered, err := cl.WriteFrom("b.dat", int64(len(content)), bytes.NewReader(content))
	if err != nil {
		t.Fatal(err)
	}
	if !buffered {
		t.Fatal("write buffer enabled but streamed write was not absorbed")
	}
	got, fromBuffer, err := cl.Read("b.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !fromBuffer {
		t.Fatal("dirty buffered write not served from the buffer disk")
	}
	if !bytes.Equal(got, content) {
		t.Fatal("buffered streamed write content mismatch")
	}
}

// TestStreamStriped exercises the chunked path over a striped layout:
// the stream must reassemble the stripe chunks in order, and a streamed
// write must land them where the RPC read path looks.
func TestStreamStriped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) { cfg.StripeChunkBytes = 16 << 10 })
	content := patternedContent(7, 100<<10) // 7 stripe chunks
	if err := cl.Create("s.dat", content); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, _, err := cl.ReadTo("s.dat", &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("striped streamed read mismatch")
	}
	fresh := patternedContent(8, 90<<10)
	if _, err := cl.WriteFrom("s.dat", int64(len(fresh)), bytes.NewReader(fresh)); err != nil {
		t.Fatal(err)
	}
	got, _, err := cl.Read("s.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("RPC read after striped streamed write mismatch")
	}
}

// TestStreamEarlyCloseLeavesConnectionUsable pins the tombstone
// semantics: abandoning a stream mid-transfer must not poison the
// connection — later streams and RPCs on the same endpoint still work.
func TestStreamEarlyCloseLeavesConnectionUsable(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	content := patternedContent(9, 1<<20)
	if err := cl.Create("e.dat", content); err != nil {
		t.Fatal(err)
	}
	r, err := cl.OpenRead("e.dat", StreamOptions{ChunkBytes: 4 << 10, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 8192)
	if _, err := io.ReadFull(r, small); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // abandon the remaining ~1 MB
		t.Fatal(err)
	}
	// The same node endpoint must serve fresh work on the same
	// connection generation.
	got, _, err := cl.Read("e.dat")
	if err != nil {
		t.Fatalf("RPC read after early stream close: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("content mismatch after early close")
	}
	var buf bytes.Buffer
	if _, _, err := cl.ReadTo("e.dat", &buf); err != nil {
		t.Fatalf("stream after early stream close: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), content) {
		t.Fatal("second stream content mismatch")
	}
}

// TestStreamOpenOnMetadataServerRejected pins byte-compatibility with
// non-streaming v2 peers: a daemon without a data plane answers a stream
// open with a typed remote error and keeps the connection healthy.
func TestStreamOpenOnMetadataServerRejected(t *testing.T) {
	cl, srv, _ := testCluster(t, 1, nil)
	if err := cl.Create("x.dat", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	ep := proto.NewEndpoint(srv.Addr(), nil, proto.TransportConfig{Retries: -1})
	defer ep.Close()
	_, err := ep.OpenReadStream(proto.StreamOpenReq{FileID: 1}, telemetry.SpanContext{})
	var re *proto.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	// The rejection must not have poisoned the connection.
	if _, _, err := ep.Call(proto.TListReq, nil); err != nil {
		t.Fatalf("round trip after rejected stream open: %v", err)
	}
}

func TestStreamReadMissingFileTyped(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	_, err := cl.OpenRead("ghost", StreamOptions{})
	if !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("err = %v, want ErrFileNotFound", err)
	}
}

func TestStreamWriteSizeMismatchRejected(t *testing.T) {
	cl, _, _ := testCluster(t, 1, nil)
	if err := cl.Create("short.dat", []byte("seed")); err != nil {
		t.Fatal(err)
	}
	w, err := cl.OpenWrite("short.dat", 1000, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("short streamed write committed")
	}
	// The placeholder content must have survived the aborted write.
	got, _, err := cl.Read("short.dat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("seed")) {
		t.Fatal("aborted streamed write clobbered the file")
	}
}

// TestStreamPropertyConcurrentIntegrity is the seeded random property
// test: ≥8 concurrent streams with random chunk-size/window schedules,
// each file carrying unique patterned contents, reassembled
// byte-identical while plain RPC reads interleave on the same
// connections. A single crossed chunk anywhere changes some file's
// bytes. Two more phases race writers against the same file: streamed
// reads against RPC overwrites, and two streamed writes against each
// other; every reader and the final file must see exactly one whole
// version.
func TestStreamPropertyConcurrentIntegrity(t *testing.T) {
	cl, _, _ := testCluster(t, 2, func(cfg *NodeConfig) { cfg.StripeChunkBytes = 32 << 10 })
	const files = 10
	contents := make([][]byte, files)
	rng := rand.New(rand.NewSource(20260808))
	for i := range contents {
		size := 1<<10 + rng.Intn((2<<20)-(1<<10)) // 1 KB .. 2 MB
		contents[i] = patternedContent(int64(100+i), size)
		if err := cl.Create(fmt.Sprintf("p%02d.dat", i), contents[i]); err != nil {
			t.Fatal(err)
		}
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, files*2)
		for i := 0; i < files; i++ {
			// Per-stream random schedule, derived deterministically from
			// the base seed so failures reproduce.
			chunk := 512 + rng.Intn(64<<10)
			window := 1 + rng.Intn(16)
			wg.Add(1)
			go func(i, chunk, window int) {
				defer wg.Done()
				name := fmt.Sprintf("p%02d.dat", i)
				r, err := cl.OpenRead(name, StreamOptions{ChunkBytes: chunk, Window: window})
				if err != nil {
					errs <- fmt.Errorf("%s: open: %w", name, err)
					return
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil {
					errs <- fmt.Errorf("%s: read: %w", name, err)
					return
				}
				if !bytes.Equal(got, contents[i]) {
					errs <- fmt.Errorf("%s: streamed bytes differ (len %d vs %d)",
						name, len(got), len(contents[i]))
				}
			}(i, chunk, window)
			// Interleave plain RPC reads on the same multiplexed
			// connections.
			if i%3 == 0 {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					name := fmt.Sprintf("p%02d.dat", i)
					got, _, err := cl.Read(name)
					if err != nil {
						errs <- fmt.Errorf("%s: rpc read: %w", name, err)
						return
					}
					if !bytes.Equal(got, contents[i]) {
						errs <- fmt.Errorf("%s: rpc bytes differ", name)
					}
				}(i)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	// Streamed reads racing RPC overwrites of one non-striped file (every
	// version is under the 32 KB stripe) each return exactly one version.
	versions := make([][]byte, 8)
	for v := range versions {
		versions[v] = patternedContent(int64(200+v), 16<<10+rng.Intn(15<<10))
	}
	if err := cl.Create("race.dat", versions[0]); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for reads := 0; ; reads++ {
				select {
				case <-stop:
					return
				default:
				}
				rd, err := cl.OpenRead("race.dat", StreamOptions{ChunkBytes: 4 << 10})
				if err != nil {
					errs <- fmt.Errorf("race read %d: open: %w", reads, err)
					return
				}
				got, err := io.ReadAll(rd)
				rd.Close()
				if err != nil {
					errs <- fmt.Errorf("race read %d: %w", reads, err)
					return
				}
				if !matchesOne(got, versions) {
					errs <- fmt.Errorf("race read %d: %d bytes match no written version", reads, len(got))
					return
				}
			}
		}()
	}
	for w := 1; w <= 200; w++ {
		if _, err := cl.Write("race.dat", versions[w%len(versions)]); err != nil {
			t.Errorf("overwrite %d: %v", w, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Two concurrent streamed writes of one file both commit, and the file
	// ends as one of the two payloads. Each payload spans many one-chunk
	// windows, so once Write returns the node has begun landing it: both
	// writes are mid-flight before either commits.
	payloads := [][]byte{patternedContent(300, 8<<10), patternedContent(301, 12<<10)}
	if err := cl.Create("dup.dat", payloads[0]); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		var ws []*FileWriter
		for _, p := range payloads {
			w, err := cl.OpenWrite("dup.dat", int64(len(p)), StreamOptions{ChunkBytes: 512, Window: 1})
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, w)
		}
		for i, w := range ws {
			if _, err := w.Write(payloads[i]); err != nil {
				t.Fatalf("round %d: writer %d: %v", round, i, err)
			}
		}
		for i, w := range ws {
			if err := w.Close(); err != nil {
				t.Errorf("round %d: writer %d commit: %v", round, i, err)
			}
		}
		got, _, err := cl.Read("dup.dat")
		if err != nil {
			t.Fatal(err)
		}
		if !matchesOne(got, payloads) {
			t.Fatalf("round %d: %d bytes after two streamed writes match neither payload", round, len(got))
		}
	}
}

// matchesOne reports whether got equals one of versions.
func matchesOne(got []byte, versions [][]byte) bool {
	for _, v := range versions {
		if bytes.Equal(got, v) {
			return true
		}
	}
	return false
}

// TestStreamReadAllocsFlat is the O(chunk) memory guard: streaming a
// 16 MB file must allocate barely more than streaming a 1 MB file —
// the per-chunk buffers are pooled, so total allocations are flat in
// file size, not linear.
func TestStreamReadAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector randomizes sync.Pool reuse; allocation counts are meaningless")
	}
	cl, _, _ := testCluster(t, 1, func(cfg *NodeConfig) {
		cfg.InjectLatency = false // pure data-path measurement
	})
	small := patternedContent(11, 1<<20)
	large := patternedContent(12, 16<<20)
	if err := cl.Create("small.dat", small); err != nil {
		t.Fatal(err)
	}
	if err := cl.Create("large.dat", large); err != nil {
		t.Fatal(err)
	}

	measure := func(name string, size int64) uint64 {
		// Warm up the pools and connection once.
		var warm bytes.Buffer
		if _, _, err := cl.ReadTo(name, &warm); err != nil {
			t.Fatal(err)
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := cl.OpenRead(name, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := io.Copy(io.Discard, r)
		r.Close()
		if err != nil || n != size {
			t.Fatalf("copy %s: n=%d err=%v", name, n, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	smallAlloc := measure("small.dat", int64(len(small)))
	largeAlloc := measure("large.dat", int64(len(large)))
	t.Logf("alloc: 1MB=%d bytes, 16MB=%d bytes", smallAlloc, largeAlloc)
	// 16x the data must not cost anywhere near 16x the allocations. The
	// bound is generous (pool misses under GC pressure, socket buffers)
	// but far below the 16 MB a whole-payload path would copy.
	if largeAlloc > smallAlloc+8<<20 {
		t.Fatalf("streaming allocations scale with file size: 1MB=%d, 16MB=%d",
			smallAlloc, largeAlloc)
	}
}

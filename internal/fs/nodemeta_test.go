package fs

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"eevfs/internal/disk"
	"eevfs/internal/prefetch"
	"eevfs/internal/proto"
)

// Tests of the per-role metadata tables: the node's one record per file
// and the server's one per-id table.

// quietNode starts a one-node deployment on root, latency injection off.
func quietNode(t *testing.T, root string, dataDisks int) (*Node, error) {
	t.Helper()
	return StartNode(NodeConfig{
		Addr: "127.0.0.1:0", RootDir: root, DataDisks: dataDisks,
		DataModel: disk.ModelType1, BufferModel: disk.ModelType1,
		TimeScale: 1000, Logger: log.New(io.Discard, "", 0),
	})
}

// TestPrefetchedOverwriteCountsOnceInBuffer: a prefetched file that takes
// a buffered overwrite has one copy on the buffer disk, so it counts once
// against BufferCapacityBytes. Counting it as both a replica and a dirty
// write would leave no room for the second file.
func TestPrefetchedOverwriteCountsOnceInBuffer(t *testing.T) {
	cl, _, nodes := testCluster(t, 1, func(c *NodeConfig) {
		c.WriteBuffer = true
		c.BufferCapacityBytes = 2000
	})
	kb := bytes.Repeat([]byte("a"), 1000)
	if err := cl.Create("a.dat", kb); err != nil { // buffered write 1
		t.Fatal(err)
	}
	if _, _, err := cl.Read("a.dat"); err != nil {
		t.Fatal(err)
	}
	if n, err := cl.Prefetch(1); err != nil || n != 1 {
		t.Fatalf("Prefetch = %d, %v; want 1", n, err)
	}
	buffered, err := cl.Write("a.dat", bytes.Repeat([]byte("b"), 1000)) // buffered write 2
	if err != nil {
		t.Fatal(err)
	}
	if !buffered {
		t.Fatal("overwrite of the prefetched file not buffered")
	}
	if err := cl.Create("b.dat", kb); err != nil { // 1000 used + 1000 fits 2000
		t.Fatal(err)
	}
	if _, _, bufWrites := nodes[0].Counters(); bufWrites != 3 {
		t.Fatalf("buffered writes = %d, want 3: the prefetched, overwritten file was counted twice", bufWrites)
	}
	got, fromBuffer, err := cl.Read("a.dat")
	if err != nil || !fromBuffer || !bytes.Equal(got, bytes.Repeat([]byte("b"), 1000)) {
		t.Fatalf("read of overwritten file: buffer=%v, %d bytes, %v", fromBuffer, len(got), err)
	}
}

// TestDeleteDropsAllFileState: after a delete the node holds nothing for
// the id. A later file that reuses the id starts clean: the deleted
// file's hint and access stamp must not steer the idle-window predictor.
func TestDeleteDropsAllFileState(t *testing.T) {
	node, err := quietNode(t, t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	create := func() {
		t.Helper()
		if err := node.handleCreate(proto.NodeCreateReq{FileID: 1, Size: 3}); err != nil {
			t.Fatal(err)
		}
	}
	create()
	if _, err := node.handleWrite(proto.NodeWriteReq{FileID: 1, Data: []byte("abc")}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := node.handleRead(1, nil); err != nil {
		t.Fatal(err)
	}
	node.handleHints(proto.NodeHintsReq{Hints: []proto.FileHint{{FileID: 1, MeanIntervalSec: 2}}})
	if _, ok := node.predictedGap(0); !ok {
		t.Fatal("precondition: the hint does not reach the predictor")
	}
	if n := node.handlePrefetch([]int64{1}, nil); n != 1 {
		t.Fatalf("prefetched %d, want 1", n)
	}
	if err := node.handleDelete(1); err != nil {
		t.Fatal(err)
	}
	if files := node.Files(); len(files) != 0 {
		t.Fatalf("Files after delete = %+v", files)
	}
	create()
	if gap, ok := node.predictedGap(0); ok {
		t.Fatalf("deleted file's hint survived into its id's successor (gap %v)", gap)
	}
}

// TestStartNodeRejectsBadManifestEntries: a manifest file with a
// non-positive size or a negative disk is corrupt at decode time; one on
// a disk the node does not have is rejected when the node loads it.
func TestStartNodeRejectsBadManifestEntries(t *testing.T) {
	for _, tc := range []struct {
		name     string
		file     string
		decodeOK bool
	}{
		{"zero size", `{"id":0,"size":0,"disk":0}`, false},
		{"negative disk", `{"id":0,"size":10,"disk":-1}`, false},
		{"disk past DataDisks", `{"id":0,"size":10,"disk":2}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := []byte(`{"version":1,"next_disk":0,"files":[` + tc.file + `]}`)
			if _, err := decodeNodeManifest(raw); (err == nil) != tc.decodeOK {
				t.Fatalf("decodeNodeManifest err = %v, want ok=%v", err, tc.decodeOK)
			}
			root := t.TempDir()
			if err := os.WriteFile(filepath.Join(root, "manifest.json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			node, err := quietNode(t, root, 2)
			if err == nil {
				node.Close()
				t.Fatal("StartNode accepted the manifest")
			}
		})
	}
}

// TestManifestDirtyListLoads: a version-1 manifest with a dirty list (the
// format every earlier node wrote) loads with the file marked dirty, so
// reads come from the buffer disk's newer copy and shutdown flushes it.
func TestManifestDirtyListLoads(t *testing.T) {
	root := t.TempDir()
	manifest := `{"version":1,"next_disk":1,` +
		`"files":[{"id":0,"size":5,"disk":0},{"id":1,"size":5,"disk":0}],` +
		`"dirty":[{"id":0,"size":5},{"id":9,"size":4}]}`
	for path, content := range map[string]string{
		"manifest.json":        manifest,
		"buffer/f00000000.dat": "fresh",
		"data0/f00000000.dat":  "stale",
		"data0/f00000001.dat":  "clean",
	} {
		p := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	node, err := quietNode(t, root, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := node.lookup(0, false); !ok || !rec.dirty {
		t.Fatalf("file 0 = %+v, %v; want dirty", rec, ok)
	}
	if rec, ok := node.lookup(1, false); !ok || rec.dirty {
		t.Fatalf("file 1 = %+v, %v; want clean", rec, ok)
	}
	if _, ok := node.lookup(9, false); ok {
		t.Fatal("a dirty entry without a file created a record")
	}
	data, fromBuffer, err := node.handleRead(0, nil)
	if err != nil || !fromBuffer || string(data) != "fresh" {
		t.Fatalf("read of dirty file = %q, buffer=%v, %v", data, fromBuffer, err)
	}
	node.Close()
	if got, err := os.ReadFile(filepath.Join(root, "data0", "f00000000.dat")); err != nil || string(got) != "fresh" {
		t.Fatalf("data disk after shutdown flush = %q, %v", got, err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeNodeManifest(raw)
	if err != nil || len(m.Dirty) != 0 || len(m.Files) != 2 {
		t.Fatalf("manifest after flush = %+v, %v", m, err)
	}
}

// TestPopularityMatchesAccessLog: prefetch ranking from the per-id table
// equals ranking from the access journal's full walk (AtomicLog.Counts)
// once concurrent lookups have quiesced, and the table's sizes equal the
// namespace's.
func TestPopularityMatchesAccessLog(t *testing.T) {
	_, srv, _ := testCluster(t, 2, func(c *NodeConfig) { c.InjectLatency = false })
	const files = 40
	setup, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	for i := 0; i < files; i++ {
		if err := setup.Create(fmt.Sprintf("f%02d", i), bytes.Repeat([]byte("x"), 10+7*i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			// File i is read about (files - i) / 4 times per caller, so
			// counts fall with the id and neighbours tie.
			for i := 0; i < files; i++ {
				for r := 0; r < (files-i+g)/4; r++ {
					if _, _, err := cl.Read(fmt.Sprintf("f%02d", i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	counts, sizes := srv.popularity()
	if len(counts) != files {
		t.Fatalf("popularity covers %d ids, want %d", len(counts), files)
	}
	if ref := srv.accesses.Counts(files); !reflect.DeepEqual(counts, ref) {
		t.Fatalf("table counts %v\njournal counts %v", counts, ref)
	}
	for id := range sizes {
		fi, ok := srv.meta.LookupID(id)
		if !ok || fi.Size != sizes[id] {
			t.Fatalf("id %d: table size %d, namespace %+v", id, sizes[id], fi)
		}
	}
	ref := srv.accesses.Counts(files)
	for _, k := range []int{1, 5, files} {
		for _, capacity := range []int64{0, 800} {
			got, err := prefetch.Select(counts, sizes, k, capacity)
			if err != nil {
				t.Fatal(err)
			}
			want, err := prefetch.Select(ref, sizes, k, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d capacity=%d: table ranks %v, journal ranks %v", k, capacity, got, want)
			}
		}
	}
}

// TestResizedWriteReachesManifest: a direct write that changes a file's
// size changes its stripe layout, so the new size must be in the
// manifest on disk at once, not only after a clean shutdown; a node
// restarted after a crash with the old size would look for the wrong
// extents.
func TestResizedWriteReachesManifest(t *testing.T) {
	root := t.TempDir()
	node, err := StartNode(NodeConfig{
		Addr: "127.0.0.1:0", RootDir: root, DataDisks: 2, StripeChunkBytes: 100,
		DataModel: disk.ModelType1, BufferModel: disk.ModelType1,
		TimeScale: 1000, Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.handleCreate(proto.NodeCreateReq{FileID: 0, Size: 50}); err != nil {
		t.Fatal(err)
	}
	// 250 bytes: three stripe chunks where the created size had one.
	if _, err := node.handleWrite(proto.NodeWriteReq{FileID: 0, Data: patternedContent(7, 250)}, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeNodeManifest(raw)
	if err != nil || len(m.Files) != 1 || m.Files[0].Size != 250 {
		t.Fatalf("manifest before shutdown = %+v, %v; want file 0 at 250 bytes", m.Files, err)
	}
}

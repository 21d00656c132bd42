package fs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// Fuzzers for the metadata persistence decoders (ISSUE 3): malformed
// snapshot bytes must never panic, and anything a decoder accepts must
// survive an encode/decode round trip unchanged — the property loadState
// and loadManifest rely on after a crash leaves an arbitrary file behind.

func FuzzDecodeNodeManifest(f *testing.F) {
	seed := nodeManifest{
		Version:  manifestVersion,
		NextDisk: 3,
		Files: []nodeFileEntry{
			{ID: 0, Size: 1e6, Disk: 0, Prefetched: true},
			{ID: 1, Size: 5e8, Disk: 1},
		},
		Dirty: []dirtyEntry{{ID: 1, Size: 5e8}},
	}
	raw, err := json.MarshalIndent(seed, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":99,"files":[{"id":-1}]}`))
	f.Add([]byte(`{"version":1,"files":[{"id":1,"size":-5,"disk":1e9}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeNodeManifest(data)
		if err != nil {
			return
		}
		for _, fe := range m.Files {
			if fe.Size <= 0 || fe.Disk < 0 {
				t.Fatalf("decoder accepted file %+v", fe)
			}
		}
		reEnc, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			t.Fatalf("re-encoding accepted manifest: %v", err)
		}
		again, err := decodeNodeManifest(reEnc)
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed manifest:\n%+v\n%+v", m, again)
		}
	})
}

func FuzzDecodeServerState(f *testing.F) {
	seed := serverState{
		Version:  manifestVersion,
		NextID:   7,
		NextNode: 2,
		Files: []serverFileEntry{
			{Name: "a.dat", ID: 0, Size: 1e6, Node: 0},
			{Name: "b.dat", ID: 6, Size: 2e7, Node: 1},
		},
	}
	raw, err := json.MarshalIndent(seed, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"next_id":-3}`))
	f.Add([]byte(`{"version":1,"files":[{"name":"","id":0,"size":0,"node":-1}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"version":1,"files":`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeServerState(data)
		if err != nil {
			return
		}
		if st.Version != manifestVersion {
			t.Fatalf("decoder accepted version %d", st.Version)
		}
		reEnc, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatalf("re-encoding accepted state: %v", err)
		}
		again, err := decodeServerState(reEnc)
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("round trip changed state:\n%+v\n%+v", st, again)
		}
	})
}

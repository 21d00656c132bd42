package fs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"eevfs/internal/metadata"
)

// Metadata persistence. The paper's prototype kept metadata in memory;
// for a restartable daemon we journal it as JSON manifests: the storage
// node keeps one in its root directory (next to the disk directories),
// and the storage server keeps one at an operator-chosen path. Manifests
// are written atomically (temp file + rename) on every mutation — the
// metadata is tiny compared to the data it describes.

// nodeManifest is the storage node's on-disk metadata.
type nodeManifest struct {
	Version  int             `json:"version"`
	NextDisk int             `json:"next_disk"`
	Files    []nodeFileEntry `json:"files"`
	Dirty    []dirtyEntry    `json:"dirty,omitempty"`
}

type nodeFileEntry struct {
	ID         int   `json:"id"`
	Size       int64 `json:"size"`
	Disk       int   `json:"disk"`
	Prefetched bool  `json:"prefetched,omitempty"`
}

type dirtyEntry struct {
	ID   int   `json:"id"`
	Size int64 `json:"size"`
}

const manifestVersion = 1

func (n *Node) manifestPath() string {
	return filepath.Join(n.cfg.RootDir, "manifest.json")
}

// saveManifest snapshots the node's metadata. Callers must not hold n.mu.
// saveMu serializes saves, so an older snapshot can never be the last
// one renamed into place.
func (n *Node) saveManifest() {
	n.saveMu.Lock()
	defer n.saveMu.Unlock()
	n.mu.Lock()
	m := nodeManifest{Version: manifestVersion, NextDisk: n.nextDisk}
	for _, r := range n.files {
		m.Files = append(m.Files, nodeFileEntry{
			ID: r.ID, Size: r.Size, Disk: r.Disk, Prefetched: r.Prefetched,
		})
		if r.dirty {
			m.Dirty = append(m.Dirty, dirtyEntry{ID: r.ID, Size: r.Size})
		}
	}
	n.mu.Unlock()
	sort.Slice(m.Files, func(i, j int) bool { return m.Files[i].ID < m.Files[j].ID })
	sort.Slice(m.Dirty, func(i, j int) bool { return m.Dirty[i].ID < m.Dirty[j].ID })

	if err := writeJSONAtomic(n.manifestPath(), m); err != nil {
		n.logger.Printf("manifest save failed: %v", err)
	}
}

// decodeNodeManifest parses and checks a node manifest: its version, and
// that every file has a positive size and a non-negative disk. Split from
// loadManifest so the decode path is directly fuzzable.
func decodeNodeManifest(raw []byte) (nodeManifest, error) {
	var m nodeManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nodeManifest{}, err
	}
	if m.Version != manifestVersion {
		return nodeManifest{}, fmt.Errorf("fs: manifest version %d unsupported", m.Version)
	}
	for _, f := range m.Files {
		if f.Size <= 0 {
			return nodeManifest{}, fmt.Errorf("fs: manifest file %d has non-positive size %d", f.ID, f.Size)
		}
		if f.Disk < 0 {
			return nodeManifest{}, fmt.Errorf("fs: manifest file %d has negative disk %d", f.ID, f.Disk)
		}
	}
	return m, nil
}

// loadManifest restores metadata from a previous run; a missing manifest
// means a fresh node.
func (n *Node) loadManifest() error {
	raw, err := os.ReadFile(n.manifestPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fs: reading manifest: %w", err)
	}
	m, err := decodeNodeManifest(raw)
	if err != nil {
		return fmt.Errorf("fs: corrupt manifest %s: %w", n.manifestPath(), err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, f := range m.Files {
		if f.Disk >= n.cfg.DataDisks {
			return fmt.Errorf("fs: manifest file %d on disk %d, node has %d", f.ID, f.Disk, n.cfg.DataDisks)
		}
		n.files[f.ID] = &fileRec{NodeEntry: metadata.NodeEntry{
			ID: f.ID, Size: f.Size, Disk: f.Disk, Prefetched: f.Prefetched,
		}}
	}
	// A dirty entry marks its file; the size it repeats is the file's.
	// An entry for a file the manifest does not list has nothing to flush.
	for _, d := range m.Dirty {
		if r, ok := n.files[d.ID]; ok {
			r.dirty = true
		}
	}
	n.nextDisk = m.NextDisk
	return nil
}

// serverState is the storage server's on-disk metadata. RepSeq and
// Epoch only matter for members of a replicated group; pre-replication
// state files decode with both zero, which is exactly "fresh log".
type serverState struct {
	Version  int               `json:"version"`
	NextID   int64             `json:"next_id"`
	NextNode int               `json:"next_node"`
	RepSeq   uint64            `json:"rep_seq,omitempty"`
	Epoch    uint64            `json:"epoch,omitempty"`
	Files    []serverFileEntry `json:"files"`
}

type serverFileEntry struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Size    int64  `json:"size"`
	Node    int    `json:"node"`
	Replica int    `json:"replica,omitempty"`
}

// saveState snapshots the server metadata to cfg.StateFile (no-op when
// persistence is not configured). The snapshot walks the sharded map one
// stripe at a time — no global lock exists to freeze the whole namespace,
// so concurrent mutations may or may not appear; each stripe is
// internally consistent and the final mutation of any burst triggers its
// own save. saveMu serializes writers, so an older snapshot can never be
// the last one renamed into place.
func (s *Server) saveState() {
	if s.cfg.StateFile == "" {
		return
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	st := serverState{
		Version:  manifestVersion,
		NextID:   s.nextID.Load(),
		NextNode: int(s.nextNode.Load()),
		RepSeq:   s.repSeqA.Load(),
		Epoch:    s.epoch.Load(),
	}
	for _, name := range s.meta.Names() {
		if fi, ok := s.meta.LookupName(name); ok {
			st.Files = append(st.Files, serverFileEntry{
				Name: fi.Name, ID: fi.ID, Size: fi.Size, Node: fi.Node, Replica: fi.Replica,
			})
		}
	}
	if err := writeJSONAtomic(s.cfg.StateFile, st); err != nil {
		s.logger.Printf("state save failed: %v", err)
	}
}

// decodeServerState parses and version-checks a server state file. Split
// from loadState so the decode path is directly fuzzable.
func decodeServerState(raw []byte) (serverState, error) {
	var st serverState
	if err := json.Unmarshal(raw, &st); err != nil {
		return serverState{}, err
	}
	if st.Version != manifestVersion {
		return serverState{}, fmt.Errorf("fs: server state version %d unsupported", st.Version)
	}
	return st, nil
}

// loadState restores server metadata; a missing file means a fresh server.
func (s *Server) loadState() error {
	if s.cfg.StateFile == "" {
		return nil
	}
	raw, err := os.ReadFile(s.cfg.StateFile)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("fs: reading server state: %w", err)
	}
	st, err := decodeServerState(raw)
	if err != nil {
		return fmt.Errorf("fs: corrupt server state %s: %w", s.cfg.StateFile, err)
	}
	for _, f := range st.Files {
		if f.Node >= len(s.nodes) {
			return fmt.Errorf("fs: state file %q on node %d, server has %d", f.Name, f.Node, len(s.nodes))
		}
		if err := s.meta.Put(metadata.FileInfo{
			Name: f.Name, ID: f.ID, Size: f.Size, Node: f.Node, Replica: f.Replica,
		}); err != nil {
			return err
		}
	}
	s.nextID.Store(st.NextID)
	s.nextNode.Store(int64(st.NextNode))
	s.repSeq = st.RepSeq
	s.repSeqA.Store(st.RepSeq)
	if st.Epoch > 0 {
		s.epoch.Store(st.Epoch)
	}
	for _, f := range st.Files {
		if f.ID >= 0 && int64(f.ID) < st.NextID {
			s.ids.setSize(int64(f.ID), f.Size)
		}
	}
	return nil
}

// writeJSONAtomic writes v as indented JSON through segWriter, the one
// commit primitive: a uniquely named temp file renamed over path.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return commitBytes([]extent{{path: path, size: int64(len(data))}}, data)
}

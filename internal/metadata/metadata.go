// Package metadata implements EEVFS's two-level distributed metadata
// (Section IV-D of the paper).
//
// The storage server keeps only coarse metadata — which storage node holds
// a file, and the file's size. It deliberately does not know which disk
// inside a node a file lives on, or whether the file has been prefetched.
// Each storage node keeps that local metadata for its own disks. This
// split is what lets the server act purely as a load balancer and access
// point.
package metadata

import (
	"fmt"
	"sort"
	"sync"
)

// FileInfo is the server-side record for one file.
type FileInfo struct {
	Name string
	ID   int   // dense id used by traces and placement
	Size int64 // bytes
	Node int   // storage node holding the file
	// Replica is the index+1 of a node holding a buffer-disk copy of the
	// file (0 = none), so the zero value means "no replica". Reads may
	// fall back to it while the owning node is unhealthy; any write
	// invalidates it first.
	Replica int
}

// ReplicaNode unpacks the replica marker: the node index holding the
// buffer-disk copy, and whether one exists.
func (fi FileInfo) ReplicaNode() (int, bool) {
	if fi.Replica <= 0 {
		return 0, false
	}
	return fi.Replica - 1, true
}

// ServerMap is the storage server's metadata: name -> FileInfo. It is safe
// for concurrent use (the real FS serves many clients at once).
type ServerMap struct {
	mu     sync.RWMutex
	byName map[string]FileInfo
	byID   map[int]FileInfo
}

// NewServerMap returns an empty server metadata map.
func NewServerMap() *ServerMap {
	return &ServerMap{
		byName: make(map[string]FileInfo),
		byID:   make(map[int]FileInfo),
	}
}

// Put inserts or replaces a file record. Replacing a name with a different
// id (or vice versa) removes the stale pairing.
func (m *ServerMap) Put(fi FileInfo) error {
	if fi.Name == "" {
		return fmt.Errorf("metadata: empty file name")
	}
	if fi.Size <= 0 {
		return fmt.Errorf("metadata: file %q has non-positive size %d", fi.Name, fi.Size)
	}
	if fi.Node < 0 {
		return fmt.Errorf("metadata: file %q has negative node %d", fi.Name, fi.Node)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if old, ok := m.byName[fi.Name]; ok && old.ID != fi.ID {
		delete(m.byID, old.ID)
	}
	if old, ok := m.byID[fi.ID]; ok && old.Name != fi.Name {
		delete(m.byName, old.Name)
	}
	m.byName[fi.Name] = fi
	m.byID[fi.ID] = fi
	return nil
}

// LookupName returns the record for a file name.
func (m *ServerMap) LookupName(name string) (FileInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fi, ok := m.byName[name]
	return fi, ok
}

// LookupID returns the record for a file id.
func (m *ServerMap) LookupID(id int) (FileInfo, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fi, ok := m.byID[id]
	return fi, ok
}

// Delete removes a file by name. Removing a missing file is a no-op that
// returns false.
func (m *ServerMap) Delete(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	fi, ok := m.byName[name]
	if !ok {
		return false
	}
	delete(m.byName, name)
	delete(m.byID, fi.ID)
	return true
}

// Len returns the number of files.
func (m *ServerMap) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.byName)
}

// Names returns all file names in sorted order (deterministic listing).
func (m *ServerMap) Names() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.byName))
	for n := range m.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NodeEntry is a storage node's local record for one file.
type NodeEntry struct {
	ID         int
	Size       int64
	Disk       int  // data-disk index inside the node
	Prefetched bool // a copy lives on the buffer disk
}

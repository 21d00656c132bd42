package fs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Chunk geometry for idTable, mirroring trace.AtomicLog: file ids are
// dense and monotonic, so a chunked grow-only array beats a map and needs
// no per-read lock.
const (
	idChunkBits = 10
	idChunkSize = 1 << idChunkBits
)

// idStat is the server's per-id record: the file's size and its
// incremental access aggregate — how often it was read and the first/last
// access times, which is what both popularity ranking (Section IV-A) and
// the inter-arrival hint (Section IV-C) need. Times are stored as
// math.Float64bits(t)+1 so zero means "never set" — the bits of
// non-negative floats order the same as the floats, so CAS min/max works
// on the encoded form.
type idStat struct {
	size  atomic.Int64
	count atomic.Int64
	first atomic.Uint64
	last  atomic.Uint64
}

type idChunk [idChunkSize]idStat

// idTable is the server's one per-id table. Slots survive deletes
// (popularity is indexed by dense file id). Sizes are set on the create
// path; every journaled access is folded in as it happens, so prefetch
// ranking and hint derivation read one slot per file instead of
// re-walking the access history. Writes are lock-free after the chunk
// exists. Must not be copied.
type idTable struct {
	chunks atomic.Pointer[[]*idChunk]
	grow   sync.Mutex
}

// setSize records the size of a file id.
func (t *idTable) setSize(id, size int64) { t.slot(id).size.Store(size) }

// note folds one access at timeS (model seconds, non-negative) into the
// aggregate for id.
func (t *idTable) note(id int64, timeS float64) {
	st := t.slot(id)
	enc := math.Float64bits(timeS) + 1
	for {
		cur := st.first.Load()
		if cur != 0 && cur <= enc {
			break
		}
		if st.first.CompareAndSwap(cur, enc) {
			break
		}
	}
	for {
		cur := st.last.Load()
		if cur >= enc {
			break
		}
		if st.last.CompareAndSwap(cur, enc) {
			break
		}
	}
	st.count.Add(1)
}

// accesses decodes the access aggregate; ok is false until the first
// access is fully published.
func (st *idStat) accesses() (count int64, first, last float64, ok bool) {
	count = st.count.Load()
	f, l := st.first.Load(), st.last.Load()
	if count == 0 || f == 0 || l == 0 {
		return 0, 0, 0, false
	}
	return count, math.Float64frombits(f - 1), math.Float64frombits(l - 1), true
}

// each visits the slot of every id in [0, n) whose chunk exists; ids
// never touched read as zero.
func (t *idTable) each(n int64, visit func(id int64, st *idStat)) {
	cs := t.chunks.Load()
	if cs == nil {
		return
	}
	for id := int64(0); id < n; id++ {
		idx := int(id >> idChunkBits)
		if idx >= len(*cs) {
			return
		}
		visit(id, &(*cs)[idx][id&(idChunkSize-1)])
	}
}

// slot returns the cell for a file id, growing the chunk directory on
// first touch of a new chunk.
func (t *idTable) slot(id int64) *idStat {
	idx := int(id >> idChunkBits)
	for {
		if cs := t.chunks.Load(); cs != nil && idx < len(*cs) {
			return &(*cs)[idx][id&(idChunkSize-1)]
		}
		t.grow.Lock()
		cs := t.chunks.Load()
		if cs == nil || idx >= len(*cs) {
			var grown []*idChunk
			if cs != nil {
				grown = append(grown, *cs...)
			}
			for len(grown) <= idx {
				grown = append(grown, new(idChunk))
			}
			t.chunks.Store(&grown)
		}
		t.grow.Unlock()
	}
}

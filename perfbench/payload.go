package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Every file the benchmark writes carries a header naming the file, the
// version the benchmark assigned to that write, the body length and a
// CRC-32C of the body:
//
//	[0:4]   magic "EEVB"
//	[4:12]  version (little endian)
//	[12:16] body length
//	[16:20] CRC-32C of the body
//	[20]    name length
//	[21:48] name, zero padded
//	[48:]   body
//
// The body is a seeded random block with every 4 KiB stamped with the
// version, so content torn between two versions fails the checksum.
const (
	headerLen  = 48
	maxNameLen = headerLen - 21
	stampEvery = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errCorrupt = errors.New("content check failed")

// randomBlock returns n seeded pseudo-random bytes.
func randomBlock(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.Uint64())
	}
	return b
}

// makePayload renders version v of name over base into dst's storage.
func makePayload(dst []byte, name string, v uint64, base []byte) []byte {
	n := headerLen + len(base)
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	body := dst[headerLen:]
	copy(body, base)
	for off := 0; off+8 <= len(body); off += stampEvery {
		binary.LittleEndian.PutUint64(body[off:], v)
	}
	copy(dst[0:4], "EEVB")
	binary.LittleEndian.PutUint64(dst[4:12], v)
	binary.LittleEndian.PutUint32(dst[12:16], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[16:20], crc32.Checksum(body, castagnoli))
	dst[20] = byte(len(name))
	clear(dst[21:headerLen])
	copy(dst[21:headerLen], name)
	return dst
}

// checkPayload verifies data is an intact payload of name and returns
// its version.
func checkPayload(data []byte, name string) (uint64, error) {
	if len(data) < headerLen || string(data[0:4]) != "EEVB" {
		return 0, fmt.Errorf("%w: %s: no header in %d bytes", errCorrupt, name, len(data))
	}
	if nl := int(data[20]); nl > maxNameLen || string(data[21:21+nl]) != name {
		return 0, fmt.Errorf("%w: %s: header names another file", errCorrupt, name)
	}
	body := data[headerLen:]
	if want := binary.LittleEndian.Uint32(data[12:16]); int(want) != len(body) {
		return 0, fmt.Errorf("%w: %s: body is %d bytes, header says %d", errCorrupt, name, len(body), want)
	}
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[16:20]) {
		return 0, fmt.Errorf("%w: %s: checksum mismatch", errCorrupt, name)
	}
	return binary.LittleEndian.Uint64(data[4:12]), nil
}

// fileRec tracks the versions a file may hold. Each write gets the next
// version and a logical-clock interval [start, end]. A finished write
// w is superseded once another write that succeeded started after w
// ended; hist keeps exactly the writes not yet superseded, plus the ones
// in flight. A read that starts now may see any version in hist, or any
// version issued while it runs — nothing else.
type fileRec struct {
	name string
	size int // total payload bytes

	access sync.RWMutex // held around each op on a large file (see acquire)

	mu     sync.Mutex
	issued uint64 // last version handed out
	hist   []wrec
}

type wrec struct {
	v, start, end uint64
	done, ok      bool
}

// clock orders write and read events across callers.
var clock atomic.Uint64

func newFileRec(name string, size int) *fileRec {
	// Version 1 is the acknowledged create made during set-up.
	return &fileRec{name: name, size: size, issued: 1, hist: []wrec{{v: 1, done: true, ok: true}}}
}

func (f *fileRec) beginWrite() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.issued++
	f.hist = append(f.hist, wrec{v: f.issued, start: clock.Add(1)})
	return f.issued
}

// endWrite records the outcome of version v's write. A failed write may
// or may not have landed, so it stays a candidate until superseded.
func (f *fileRec) endWrite(v uint64, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := clock.Add(1)
	var latest uint64 // latest start among succeeded writes
	for i := range f.hist {
		w := &f.hist[i]
		if w.v == v {
			w.end, w.done, w.ok = now, true, ok
		}
		if w.done && w.ok && w.start > latest {
			latest = w.start
		}
	}
	keep := f.hist[:0]
	for _, w := range f.hist {
		if !w.done || w.end >= latest {
			keep = append(keep, w)
		}
	}
	f.hist = keep
}

// beginRead appends the versions a read starting now may see to dst and
// returns them with the last version issued so far.
func (f *fileRec) beginRead(dst []uint64) ([]uint64, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	clock.Add(1)
	for _, w := range f.hist {
		dst = append(dst, w.v)
	}
	return dst, f.issued
}

// validVersion reports whether a read that began with (cands, issuedAt)
// may return version v.
func (f *fileRec) validVersion(v uint64, cands []uint64, issuedAt uint64) bool {
	for _, c := range cands {
		if c == v {
			return true
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return v > issuedAt && v <= f.issued
}

package main

import (
	"hash/crc32"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on changes speed from one minute to the
// next: the CPU time one op costs moved by 30% between runs of the same
// code, and every wall-clock figure with it (README.md, "Steadiness").
// A speed probe measures that drift from inside the run. A goroutine on
// its own OS thread repeats one fixed unit of CPU work every
// probeInterval and times each repetition in thread CPU time, which
// excludes the time the thread waits for a CPU but not the time it runs
// slower. The probe's scale is probeRefUs over the mean of those unit
// times. Every time the benchmark reports is multiplied by it and every
// rate divided, which expresses the figure at the speed at which the
// unit takes probeRefUs.
const (
	probeInterval = 25 * time.Millisecond
	probeRefUs    = 450.0
)

// threadCPU returns the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// probeState is the probe unit's working set, reused across units.
type probeState struct {
	buf  []byte
	m    map[int]int
	keys []int
	sink uint32
}

// unit does the fixed work — checksums, map updates and a sort — and
// returns its thread CPU time in microseconds.
func (s *probeState) unit() float64 {
	t0 := threadCPU()
	for i := 0; i < 20; i++ {
		s.buf[i] = byte(i)
		s.sink += crc32.ChecksumIEEE(s.buf)
	}
	clear(s.m)
	for i := 0; i < 4000; i++ {
		s.m[i*7919%1009] += i
	}
	for i := range s.keys {
		s.keys[i] = (i * 2654435761) % 1000003
	}
	sort.Ints(s.keys)
	s.sink += uint32(len(s.m))
	return float64(threadCPU()-t0) / 1e3
}

type speedProbe struct {
	stop chan struct{}
	done chan []float64
}

// startProbe starts sampling the host's speed until end is called.
func startProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		s := &probeState{buf: make([]byte, 32<<10), m: make(map[int]int, 1009), keys: make([]int, 4000)}
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		var units []float64
		for {
			units = append(units, s.unit())
			select {
			case <-p.stop:
				p.done <- units
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// end stops the probe and returns its scale.
func (p *speedProbe) end() float64 {
	close(p.stop)
	sum := 0.0
	v := <-p.done
	for _, u := range v {
		sum += u
	}
	return probeRefUs * float64(len(v)) / sum
}

// watch times a span of the run together with what the host did over it.
type watch struct {
	begin time.Time
	ticks cpuTicks
	probe *speedProbe
}

func startWatch() *watch {
	return &watch{probe: startProbe(), ticks: readTicks(), begin: time.Now()}
}

// stop returns the span's wall time, the share of the CPU time the VM
// wanted that the host withheld (see stolenShare), and the probe's
// scale. A reported time is wall × keep(steal, scale).
func (w *watch) stop() (wall time.Duration, steal, scale float64) {
	wall = time.Since(w.begin)
	steal = stolenShare(w.ticks, readTicks())
	return wall, steal, w.probe.end()
}

// keep is the factor that turns a wall time into a reported time: net of
// what the host withheld and at the probe's reference speed.
func keep(steal, scale float64) float64 { return (1 - steal) * scale }

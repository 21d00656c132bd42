package fs

import (
	"errors"
	"net"
	"testing"
	"time"
)

// flakyListener serves a scripted sequence of Accept outcomes: transient
// errors (nil conn, non-closed error), connections, and finally
// net.ErrClosed.
type flakyListener struct {
	script []error // nil entry = hand out a connection
	pos    int
}

var errTransient = errors.New("accept: too many open files")

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.pos >= len(l.script) {
		return nil, net.ErrClosed
	}
	err := l.script[l.pos]
	l.pos++
	if err != nil {
		return nil, err
	}
	c, s := net.Pipe()
	s.Close()
	return c, nil
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptConnsSurvivesTransientErrors: an EMFILE-style burst must not
// kill the accept loop — connections after the burst are still served,
// and the loop ends only on the listener's closure. The original loop
// returned on the first error, leaving a daemon alive but deaf.
func TestAcceptConnsSurvivesTransientErrors(t *testing.T) {
	ln := &flakyListener{script: []error{
		nil, errTransient, errTransient, nil, errTransient, nil,
	}}
	var got int
	var logs int
	done := make(chan struct{})
	go func() {
		defer close(done)
		acceptConns(ln,
			func(string, ...any) { logs++ },
			func(c net.Conn) { got++; c.Close() })
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("acceptConns did not exit on listener closure")
	}
	if got != 3 {
		t.Fatalf("served %d connections through the error burst, want 3", got)
	}
	if logs != 3 {
		t.Fatalf("logged %d transient errors, want 3", logs)
	}
}

// TestHintTableAggregates: the per-id table's access aggregate (the input
// of the inter-arrival hints) must match what a full journal walk would
// have computed — counts, first/last times, nothing for an id never
// accessed — and each slot carries the file's size beside it.
func TestHintTableAggregates(t *testing.T) {
	var tab idTable
	// File 0: three accesses out of order; file 1: one access (no hint);
	// file 2000 forces a chunk grow; file 3 has a size but no access.
	tab.setSize(0, 100)
	tab.setSize(3, 300)
	tab.setSize(2000, 7)
	tab.note(0, 5.0)
	tab.note(0, 1.0)
	tab.note(0, 9.0)
	tab.note(1, 3.0)
	tab.note(2000, 0.0)
	tab.note(2000, 4.0)

	type agg struct {
		size        int64
		count       int64
		first, last float64
	}
	got := map[int64]agg{}
	tab.each(4096, func(id int64, st *idStat) {
		a := agg{size: st.size.Load()}
		if count, first, last, ok := st.accesses(); ok {
			a.count, a.first, a.last = count, first, last
		}
		if a != (agg{}) {
			got[id] = a
		}
	})
	want := map[int64]agg{
		0:    {100, 3, 1.0, 9.0},
		1:    {0, 1, 3.0, 3.0},
		3:    {300, 0, 0, 0},
		2000: {7, 2, 0.0, 4.0},
	}
	if len(got) != len(want) {
		t.Fatalf("visited %d files, want %d: %v", len(got), len(want), got)
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("file %d: got %+v, want %+v", id, got[id], w)
		}
	}
	// A horizon below the populated ids must not visit them.
	n := 0
	tab.each(1, func(int64, *idStat) { n++ })
	if n != 1 {
		t.Fatalf("horizon 1 visited %d files, want 1", n)
	}
}

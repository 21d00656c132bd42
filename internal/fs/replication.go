package fs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"eevfs/internal/metadata"
	"eevfs/internal/proto"
	"eevfs/internal/telemetry"
	"eevfs/internal/trace"
)

// Replication plane: a configured group of metadata servers elects one
// primary; the primary applies every metadata mutation locally, assigns
// it a dense sequence number, and streams it to the followers as an
// ordered op log over the same v2 mux the clients speak. A follower that
// reports a log gap (or that just joined) is resynced with a full
// snapshot. Followers reject client operations with a typed not-primary
// error carrying a redirect, watch the primary with status probes, and
// on its death elect the follower with the highest applied sequence
// (ties broken by lowest peer index), which then bumps the epoch,
// re-registers the storage nodes with a probe round, and starts serving.
//
// The model is crash-stop with epoch fencing on the replication path: a
// resurrected stale primary is demoted the moment it exchanges frames
// with the newer epoch, but there is no quorum — an acked mutation
// survives a primary crash iff at least one in-sync follower survives.
// That is the availability contract the failover test battery checks;
// it is deliberately not a consensus protocol.

// Rejection messages exchanged between servers. Matched by substring on
// the receiving side (both ends live in this package).
const (
	repMsgStaleEpoch = "replication: stale epoch"
	repMsgGap        = "replication: log gap"
)

// peerHandle is this server's view of one other group member.
type peerHandle struct {
	idx   int
	addr  string
	ep    *proto.Endpoint // replication traffic (appends, snapshots)
	probe *proto.Endpoint // status probes: single attempt, no retries

	// synced and acked are owned by the repMu holder and the fan-out
	// goroutines it spawns (one per peer, disjoint).
	synced bool
	acked  uint64
}

// initReplication wires the peer handles and decides the initial role.
// Called from StartServer before the listener starts accepting.
func (s *Server) initReplication() error {
	if len(s.cfg.Peers) == 0 {
		// Standalone: the server is trivially primary forever.
		s.primary.Store(true)
		s.roleG.Set(1)
		return nil
	}
	if s.cfg.Self < 0 || s.cfg.Self >= len(s.cfg.Peers) {
		return fmt.Errorf("fs: self index %d outside peer list of %d", s.cfg.Self, len(s.cfg.Peers))
	}
	s.peers = make([]*peerHandle, len(s.cfg.Peers))
	for i, addr := range s.cfg.Peers {
		if i == s.cfg.Self {
			continue
		}
		tc := s.cfg.Transport
		tc.Seed = s.cfg.Transport.Seed + int64(i) + 101 // decorrelate from node jitter
		tc.Metrics = s.cfg.Metrics
		probeCfg := tc
		probeCfg.Retries = -1
		probeCfg.Metrics = nil
		s.peers[i] = &peerHandle{
			idx:   i,
			addr:  addr,
			ep:    proto.NewEndpoint(addr, s.cfg.Dialer, tc),
			probe: proto.NewEndpoint(addr, s.cfg.Dialer, probeCfg),
		}
	}
	if s.epoch.Load() == 0 {
		s.epoch.Store(1) // loadState may already have restored a later epoch
	}

	// Discovery: if some peer already claims primary (we are restarting
	// into a running group), follow it; otherwise index 0 boots as
	// primary and everyone else watches it.
	if st, idx, ok := s.findPrimary(); ok {
		s.adoptEpoch(st.Epoch)
		s.primaryIdx.Store(int64(idx))
		s.logger.Printf("replication: joining as follower of %s (epoch %d)", s.cfg.Peers[idx], st.Epoch)
	} else if s.cfg.Self == 0 {
		s.primary.Store(true)
		s.primaryIdx.Store(0)
		s.roleG.Set(1)
		s.logger.Printf("replication: starting as primary (epoch %d)", s.epoch.Load())
	} else {
		s.primaryIdx.Store(0)
		s.logger.Printf("replication: starting as follower of %s", s.cfg.Peers[0])
	}
	return nil
}

// adoptEpoch raises the local epoch to at least e.
func (s *Server) adoptEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur || s.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// findPrimary probes every peer once and returns the highest-epoch
// primary claimer, if any.
func (s *Server) findPrimary() (proto.RepStatusResp, int, bool) {
	sts := s.probePeers()
	best, bestIdx, found := proto.RepStatusResp{}, 0, false
	for idx, st := range sts {
		if st != nil && st.Primary && (!found || st.Epoch > best.Epoch) {
			best, bestIdx, found = *st, idx, true
		}
	}
	return best, bestIdx, found
}

// probePeers issues one concurrent status probe per peer; nil entries
// are unreachable peers (or self).
func (s *Server) probePeers() []*proto.RepStatusResp {
	out := make([]*proto.RepStatusResp, len(s.peers))
	var wg sync.WaitGroup
	for i, p := range s.peers {
		if p == nil {
			continue
		}
		wg.Add(1)
		go func(i int, p *peerHandle) {
			defer wg.Done()
			_, payload, err := p.probe.Call(proto.TRepStatusReq, nil)
			if err != nil {
				return
			}
			if st, derr := proto.DecodeRepStatusResp(payload); derr == nil {
				out[i] = &st
			}
		}(i, p)
	}
	wg.Wait()
	return out
}

// isPrimary reports whether this server currently accepts client
// mutations. Standalone servers always do.
func (s *Server) isPrimary() bool { return s.primary.Load() }

// notPrimaryErr builds the typed rejection a follower returns to
// clients, with the best redirect hint it has.
func (s *Server) notPrimaryErr() error {
	idx := int(s.primaryIdx.Load())
	if idx == s.cfg.Self || idx < 0 || idx >= len(s.cfg.Peers) {
		return &notPrimaryError{}
	}
	return &notPrimaryError{primary: s.cfg.Peers[idx]}
}

// commit sequences one already-applied mutation into the op log,
// replicates it synchronously to the followers, and persists. Standalone
// servers just persist. The caller has already applied the mutation to
// local state; followers converge through replication or snapshot
// resync. Holding repMu across the fan-out is what makes the log
// ordered: no second mutation can be sequenced until the fan-out (which
// is bounded by the transport timeouts) resolves.
func (s *Server) commit(op proto.RepOp, sp *telemetry.Span) {
	if len(s.peers) > 0 {
		s.repMu.Lock()
		s.repSeq++
		op.Seq = s.repSeq
		s.repSeqA.Store(s.repSeq)
		s.replicateLocked([]proto.RepOp{op}, sp.Context())
		s.repMu.Unlock()
	}
	s.saveState()
}

// replicateLocked fans a batch out to every peer. Callers hold repMu.
// A peer that is marked out of sync — or that reports a gap — gets a
// full snapshot instead; a peer that cannot be reached is marked out of
// sync and repaired by the next primaryDuties tick. sc, when nonzero,
// parents a per-peer replication span so synchronous append latency
// shows up inside the mutation's trace.
func (s *Server) replicateLocked(ops []proto.RepOp, sc telemetry.SpanContext) {
	if n := s.cfg.ReplChaosSilentAfter; n > 0 && s.repSeq > uint64(n) {
		// Test-only convergence-bug injection: the primary silently stops
		// replicating but keeps acking clients, so a failover after this
		// point must lose acked mutations and trip the convergence oracle.
		return
	}
	req := proto.RepAppendReq{Epoch: s.epoch.Load(), From: int64(s.cfg.Self), Ops: ops}
	payload := req.Encode()
	var snap []byte // built at most once, only if some peer needs it
	buildSnap := func() []byte {
		if snap == nil {
			snap = s.snapshotLocked().Encode()
		}
		return snap
	}
	var wg sync.WaitGroup
	for _, p := range s.peers {
		if p == nil {
			continue
		}
		if !p.synced {
			// Repaired by snapshot, not by this append; build the bytes
			// now (cheap, local) so the goroutine only does network IO.
			buildSnap()
		}
		wg.Add(1)
		go func(p *peerHandle) {
			defer wg.Done()
			if !p.synced {
				s.sendSnapshot(p, snap)
				return
			}
			psp := s.cfg.Tracer.StartChild(sc, "server", "repl.append.peer")
			psp.Annotate("peer", p.addr)
			_, resp, err := p.ep.CallCtx(proto.TRepAppendReq, payload, psp.Context())
			psp.End(err)
			if err == nil {
				if ack, derr := proto.DecodeRepAppendResp(resp); derr == nil {
					p.acked = ack.LastSeq
					return
				}
				p.synced = false
				return
			}
			if s.checkDemotion(err) {
				return
			}
			p.synced = false // gap or transport fault: snapshot next tick
		}(p)
	}
	wg.Wait()
	s.updateLagLocked()
}

// sendSnapshot installs the primary's full state on one peer; on
// success the peer is in sync at the snapshot's seq.
func (s *Server) sendSnapshot(p *peerHandle, snap []byte) {
	_, _, err := p.ep.Call(proto.TRepSnapshotReq, snap)
	if err != nil {
		s.checkDemotion(err)
		return
	}
	p.synced = true
	p.acked = s.repSeq
}

// checkDemotion inspects a replication error from a peer: a stale-epoch
// rejection means a newer primary exists, so this server steps down and
// forces an election on its next watch tick. Returns true when demoted.
func (s *Server) checkDemotion(err error) bool {
	if !isRemoteErr(err) || !strings.Contains(err.Error(), repMsgStaleEpoch) {
		return false
	}
	if s.primary.CompareAndSwap(true, false) {
		s.roleG.Set(0)
		s.forceElect.Store(true)
		s.logger.Printf("replication: demoted by a newer epoch")
	}
	return true
}

// updateLagLocked refreshes the replication-lag gauge: how many ops the
// slowest in-sync follower is behind the primary. Out-of-sync peers are
// reported as fully lagging.
func (s *Server) updateLagLocked() {
	var worst uint64
	for _, p := range s.peers {
		if p == nil {
			continue
		}
		lag := s.repSeq
		if p.synced && p.acked <= s.repSeq {
			lag = s.repSeq - p.acked
		}
		if lag > worst {
			worst = lag
		}
	}
	s.replLag.Set(float64(worst))
}

// snapshotLocked captures the full replicated state. Callers hold repMu
// (or otherwise exclude concurrent applies). Files sort by name and
// accesses by journal order, so two replicas in the same state produce
// byte-identical snapshots — the determinism tests rely on it.
func (s *Server) snapshotLocked() proto.RepSnapshot {
	snap := proto.RepSnapshot{
		Epoch:    s.epoch.Load(),
		Seq:      s.repSeq,
		From:     int64(s.cfg.Self),
		NextID:   s.nextID.Load(),
		NextNode: s.nextNode.Load(),
	}
	names := s.meta.Names() // already sorted
	for _, name := range names {
		if fi, ok := s.meta.LookupName(name); ok {
			snap.Files = append(snap.Files, proto.RepFile{
				Name: fi.Name, ID: int64(fi.ID), Size: fi.Size,
				Node: int64(fi.Node), Replica: int64(fi.Replica),
			})
		}
	}
	recs := s.accesses.Snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	for _, r := range recs {
		snap.Accesses = append(snap.Accesses, proto.RepAccess{
			FileID: int64(r.FileID), TimeS: r.TimeS, Size: r.Size,
		})
	}
	return snap
}

// applyOpLocked applies one replicated op to local state on a follower.
// Callers hold repMu. Apply failures are returned to the primary, which
// falls back to a snapshot.
func (s *Server) applyOpLocked(op proto.RepOp) error {
	switch op.Kind {
	case proto.RepOpCreate:
		if op.ID+1 > s.nextID.Load() {
			s.nextID.Store(op.ID + 1)
		}
		if op.Cursor > s.nextNode.Load() {
			s.nextNode.Store(op.Cursor)
		}
		s.ids.setSize(op.ID, op.Size)
		return s.meta.Put(metadata.FileInfo{
			Name: op.Name, ID: int(op.ID), Size: op.Size,
			Node: int(op.Node), Replica: int(op.Replica),
		})
	case proto.RepOpDelete:
		s.meta.Delete(op.Name)
		return nil
	case proto.RepOpAccess:
		for _, r := range op.Records {
			s.recordAccess(int(r.FileID), r.TimeS, r.Size)
		}
		s.accessMark = int64(s.accesses.Len())
		return nil
	case proto.RepOpReplica:
		fi, ok := s.meta.LookupName(op.Name)
		if !ok {
			return nil // deleted concurrently on the primary; a later op removes it here too
		}
		fi.Replica = int(op.Replica)
		return s.meta.Put(fi)
	default:
		return fmt.Errorf("replication: unknown op kind %d", op.Kind)
	}
}

// handleRepAppend is the follower side of the op log: epoch fencing,
// idempotent duplicates, ordered applies, and loud gaps.
func (s *Server) handleRepAppend(req proto.RepAppendReq) (proto.RepAppendResp, error) {
	if len(s.peers) == 0 {
		return proto.RepAppendResp{}, fmt.Errorf("replication: server is not part of a group")
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if err := s.fenceLocked(req.Epoch, req.From); err != nil {
		return proto.RepAppendResp{LastSeq: s.repSeq}, err
	}
	for _, op := range req.Ops {
		if op.Seq <= s.repSeq {
			continue // duplicate delivery: ack idempotently
		}
		if op.Seq != s.repSeq+1 {
			return proto.RepAppendResp{LastSeq: s.repSeq},
				fmt.Errorf("%s: have %d, got %d", repMsgGap, s.repSeq, op.Seq)
		}
		if err := s.applyOpLocked(op); err != nil {
			return proto.RepAppendResp{LastSeq: s.repSeq}, err
		}
		s.repSeq = op.Seq
		s.repSeqA.Store(s.repSeq)
	}
	s.saveState()
	return proto.RepAppendResp{LastSeq: s.repSeq}, nil
}

// handleRepSnapshot replaces the follower's state wholesale.
func (s *Server) handleRepSnapshot(snap proto.RepSnapshot) error {
	if len(s.peers) == 0 {
		return fmt.Errorf("replication: server is not part of a group")
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if err := s.fenceLocked(snap.Epoch, snap.From); err != nil {
		return err
	}
	s.meta.Clear()
	for _, f := range snap.Files {
		if err := s.meta.Put(metadata.FileInfo{
			Name: f.Name, ID: int(f.ID), Size: f.Size,
			Node: int(f.Node), Replica: int(f.Replica),
		}); err != nil {
			return err
		}
		s.ids.setSize(f.ID, f.Size)
	}
	s.nextID.Store(snap.NextID)
	s.nextNode.Store(snap.NextNode)
	// The local journal is append-only; a follower's records are a
	// prefix of the primary's replicated stream, so appending the tail
	// converges. (After a demotion the prefix property can break; the
	// popularity counts are advisory and re-converge on later epochs.)
	for i := s.accesses.Len(); i < len(snap.Accesses); i++ {
		r := snap.Accesses[i]
		s.recordAccess(int(r.FileID), r.TimeS, r.Size)
	}
	s.accessMark = int64(s.accesses.Len())
	s.repSeq = snap.Seq
	s.repSeqA.Store(s.repSeq)
	s.saveState()
	return nil
}

// fenceLocked implements epoch fencing for incoming replication frames:
// frames from an older epoch are rejected; frames from a newer epoch
// demote a primary and re-point the follower at the sender.
func (s *Server) fenceLocked(epoch uint64, from int64) error {
	cur := s.epoch.Load()
	if epoch < cur || (epoch == cur && s.primary.Load()) {
		return fmt.Errorf("%s: local %d, got %d", repMsgStaleEpoch, cur, epoch)
	}
	if epoch > cur {
		s.epoch.Store(epoch)
		if s.primary.CompareAndSwap(true, false) {
			s.roleG.Set(0)
			s.logger.Printf("replication: stepping down, peer %d has epoch %d", from, epoch)
		}
	}
	if from >= 0 && int(from) < len(s.cfg.Peers) {
		s.primaryIdx.Store(from)
	}
	return nil
}

// handleRepStatus answers "who are you": role, epoch, log position.
// Lock-free so a primary mid-fan-out still answers elections honestly.
func (s *Server) handleRepStatus() proto.RepStatusResp {
	return proto.RepStatusResp{
		Primary:    s.primary.Load(),
		Epoch:      s.epoch.Load(),
		Seq:        s.repSeqA.Load(),
		PrimaryIdx: s.primaryIdx.Load(),
	}
}

// repLoop is the replication heartbeat: primaries flush popularity
// epochs and repair lagging followers; followers watch the primary and
// elect on its death.
func (s *Server) repLoop() {
	defer s.repWg.Done()
	interval := s.cfg.Health.ProbeInterval
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		if s.primary.Load() {
			s.primaryDuties()
		} else {
			s.watchPrimary()
		}
	}
}

// primaryDuties: replicate any popularity records logged since the last
// epoch, then snapshot-repair any follower marked out of sync.
func (s *Server) primaryDuties() {
	s.flushAccessEpoch()
	s.repMu.Lock()
	var wg sync.WaitGroup
	var snap []byte
	for _, p := range s.peers {
		if p == nil || p.synced {
			continue
		}
		if snap == nil {
			snap = s.snapshotLocked().Encode()
		}
		wg.Add(1)
		go func(p *peerHandle) {
			defer wg.Done()
			s.sendSnapshot(p, snap)
		}(p)
	}
	wg.Wait()
	s.updateLagLocked()
	s.repMu.Unlock()
}

// flushAccessEpoch replicates the access-journal records appended since
// the previous epoch as one batched op. Lookups stay lock-free and
// replication-free on the hot path; followers receive popularity in
// periodic batches, which is all the prefetch ranking needs.
func (s *Server) flushAccessEpoch() {
	if len(s.peers) == 0 {
		return
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if !s.primary.Load() {
		return
	}
	// Scan only the tail appended since the last epoch: the flush runs
	// every repLoop tick, and re-walking the whole journal each time
	// made the tick O(history) — a measurable stall source under load.
	var recs []proto.RepAccess
	maxSeq := s.accessMark - 1
	s.accesses.ScanFrom(s.accessMark, func(r trace.Record) {
		recs = append(recs, proto.RepAccess{FileID: int64(r.FileID), TimeS: r.TimeS, Size: r.Size})
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	})
	if len(recs) == 0 {
		return
	}
	s.accessMark = maxSeq + 1
	s.repSeq++
	s.repSeqA.Store(s.repSeq)
	s.replicateLocked([]proto.RepOp{{Seq: s.repSeq, Kind: proto.RepOpAccess, Records: recs}}, telemetry.SpanContext{})
}

// watchPrimary probes the believed primary; FailThreshold consecutive
// failures (or an explicit demotion signal) trigger an election.
func (s *Server) watchPrimary() {
	if s.forceElect.CompareAndSwap(true, false) {
		s.runElection()
		return
	}
	idx := int(s.primaryIdx.Load())
	if idx == s.cfg.Self || idx < 0 || idx >= len(s.peers) || s.peers[idx] == nil {
		s.runElection()
		return
	}
	p := s.peers[idx]
	_, payload, err := p.probe.Call(proto.TRepStatusReq, nil)
	if err == nil {
		if st, derr := proto.DecodeRepStatusResp(payload); derr == nil {
			s.adoptEpoch(st.Epoch)
			if st.Primary {
				s.watchFails = 0
				return
			}
			// It answered but no longer claims primary (it was demoted,
			// or never promoted): hunt for the real one now.
			s.watchFails = 0
			s.runElection()
			return
		}
	}
	s.watchFails++
	if s.watchFails >= s.cfg.Health.FailThreshold {
		s.watchFails = 0
		s.runElection()
	}
}

// runElection probes every peer: an existing primary with a current
// epoch is adopted; otherwise the reachable follower (including self)
// with the highest applied seq — ties to the lowest index — wins.
// Every follower computes the same winner from the same inputs; only
// the winner promotes itself, everyone else re-points and keeps
// watching.
func (s *Server) runElection() {
	sts := s.probePeers()
	maxEpoch := s.epoch.Load()
	for _, st := range sts {
		if st != nil && st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	// An alive primary in the newest epoch keeps the crown.
	bestIdx, found := -1, false
	for idx, st := range sts {
		if st != nil && st.Primary && st.Epoch == maxEpoch {
			if !found || idx < bestIdx {
				bestIdx, found = idx, true
			}
		}
	}
	if found {
		s.adoptEpoch(maxEpoch)
		s.primaryIdx.Store(int64(bestIdx))
		return
	}
	winner, winnerSeq := s.cfg.Self, s.repSeqA.Load()
	for idx, st := range sts {
		if st == nil || st.Primary {
			continue
		}
		if st.Seq > winnerSeq || (st.Seq == winnerSeq && idx < winner) {
			winner, winnerSeq = idx, st.Seq
		}
	}
	if winner == s.cfg.Self {
		s.promote(maxEpoch)
		return
	}
	s.primaryIdx.Store(int64(winner))
}

// promote turns this follower into the primary: bump the epoch past
// everything seen, mark every peer for snapshot resync, and re-register
// the storage nodes with an immediate probe round so the health view is
// fresh before the first client lands.
func (s *Server) promote(maxEpoch uint64) {
	s.repMu.Lock()
	s.adoptEpoch(maxEpoch + 1)
	s.primary.Store(true)
	s.primaryIdx.Store(int64(s.cfg.Self))
	for _, p := range s.peers {
		if p != nil {
			p.synced = false
		}
	}
	s.accessMark = int64(s.accesses.Len())
	epoch, seq := s.epoch.Load(), s.repSeq
	s.repMu.Unlock()
	s.roleG.Set(1)
	s.failoversC.Inc()
	s.logger.Printf("replication: promoted to primary (epoch %d, seq %d)", epoch, seq)
	s.probeNodesOnce()
}

// IsPrimary reports whether this server currently accepts client
// mutations (tests and operators poll it across failovers).
func (s *Server) IsPrimary() bool { return s.isPrimary() }

// ReplStatus exposes the replication position for tests and telemetry
// scraping: role, epoch, and last applied op seq.
func (s *Server) ReplStatus() (primary bool, epoch, seq uint64) {
	return s.primary.Load(), s.epoch.Load(), s.repSeqA.Load()
}

package collector

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"

	"cbi/internal/corpus"
	"cbi/internal/report"
)

// maxDeltaHistBytes caps the encoded bytes retained by the delta-event
// history regardless of the configured event count.
const maxDeltaHistBytes = 32 << 20

// maxRevokeIDs bounds one POST /v1/revoke request.
const maxRevokeIDs = 1 << 14

// ingestBatch is one queued unit of ingest work: the client batch id
// (for dedup/revoke bookkeeping), the WAL sequence its durable record
// carries (0 when the WAL is disabled), and the decoded reports.
type ingestBatch struct {
	id      string
	seq     uint64
	reports []*report.Report
	// key is the batch's routing-key hash (corpus.NoKey when unknown);
	// every run in a batch shares one submitting client, hence one key.
	key uint64
	// recs holds each report's canonical record when the handler
	// already has it — wire spans of an arena-decoded body, or the
	// encoding made for the WAL payload — so the apply worker doesn't
	// encode the batch again. Spans alias the lease's body: valid until
	// the lease is released.
	recs [][]byte
	// lease owns the arena buffers backing reports when the batch
	// arrived via the binary HTTP codec (nil otherwise); the apply
	// worker releases it after the batch is folded in.
	lease *report.Lease
}

// walSegment describes a closed (rotated) WAL segment awaiting a
// covering checkpoint.
type walSegment struct {
	path   string
	maxSeq uint64
	size   int64
}

// seqTracker tracks which WAL sequence numbers the aggregate has
// absorbed. Workers complete out of order, so coverage is a watermark
// (every sequence at or below it is applied) plus islands (applied
// sequences above it). Checkpoints persist both; boot replay skips
// anything covered.
type seqTracker struct {
	mu        sync.Mutex
	watermark uint64
	islands   map[uint64]struct{}
}

// markApplied records one applied sequence, advancing the watermark
// through any now-contiguous islands. Sequence 0 (WAL disabled) is a
// no-op.
func (t *seqTracker) markApplied(seq uint64) {
	if seq == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq <= t.watermark {
		return
	}
	if t.islands == nil {
		t.islands = make(map[uint64]struct{})
	}
	t.islands[seq] = struct{}{}
	for {
		if _, ok := t.islands[t.watermark+1]; !ok {
			return
		}
		t.watermark++
		delete(t.islands, t.watermark)
	}
}

// applied reports whether seq has been absorbed by the aggregate.
func (t *seqTracker) applied(seq uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq <= t.watermark {
		return true
	}
	_, ok := t.islands[seq]
	return ok
}

// capture returns the watermark and sorted islands for a checkpoint.
func (t *seqTracker) capture() (uint64, []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.islands) == 0 {
		return t.watermark, nil
	}
	isl := make([]uint64, 0, len(t.islands))
	for s := range t.islands {
		isl = append(isl, s)
	}
	sort.Slice(isl, func(i, j int) bool { return isl[i] < isl[j] })
	return t.watermark, isl
}

// restoreState seeds the tracker from a checkpoint.
func (t *seqTracker) restoreState(watermark uint64, islands []uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.watermark = watermark
	t.islands = make(map[uint64]struct{}, len(islands))
	for _, s := range islands {
		if s > watermark {
			t.islands[s] = struct{}{}
		}
	}
	for {
		if _, ok := t.islands[t.watermark+1]; !ok {
			return
		}
		t.watermark++
		delete(t.islands, t.watermark)
	}
}

// newEpoch returns a random nonzero per-boot state epoch.
func newEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is catastrophic enough elsewhere; here a
		// constant would merely disable cross-boot delta detection, but
		// there is no reason not to insist.
		panic(fmt.Sprintf("collector: reading random epoch: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// walAppend assigns the next sequence number and appends one record to
// the current WAL segment, returning the sequence. Callers must only
// ack (or apply) the work after it returns nil. A failed append is
// rolled back by truncating the partial bytes; if even that fails the
// log is poisoned and every further append errors, so nothing is ever
// acked against a log that cannot replay.
func (s *Server) walAppend(rec *corpus.WALRecord) (uint64, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil || s.walBroken {
		return 0, fmt.Errorf("collector: write-ahead log unavailable")
	}
	if s.cfg.walHook != nil {
		s.cfg.walHook("pre-append")
	}
	rec.Seq = s.walSeq + 1
	pre := s.wal.Size()
	if err := s.wal.Append(rec, s.cfg.NumSites, s.cfg.NumPreds); err != nil {
		if terr := s.wal.TruncateTo(pre); terr != nil {
			s.walBroken = true
			s.cfg.Logf("collector: WAL poisoned: append failed (%v) and truncate failed (%v)", err, terr)
		}
		return 0, err
	}
	s.walSeq++
	s.walAppends.Add(1)
	if s.cfg.walHook != nil {
		s.cfg.walHook("post-append")
	}
	return s.walSeq, nil
}

// walUsage returns the log's on-disk footprint: total bytes and live
// segment count (both zero when the WAL is disabled).
func (s *Server) walUsage() (bytes int64, segments int) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return 0, 0
	}
	bytes = s.wal.Size()
	for _, seg := range s.walPrev {
		bytes += seg.size
	}
	return bytes, 1 + len(s.walPrev)
}

// replayWAL replays every WAL segment under cfg.WALPath, re-applying
// the records the restored checkpoint does not cover, and leaves the
// last segment open for appending. Only the last segment may carry a
// torn tail (a crash mid-write); a torn or unreadable earlier segment,
// or a corrupt header, is an operator problem — acked data would be
// silently lost — so boot refuses with instructions instead of
// guessing.
func (s *Server) replayWAL() error {
	cfg := s.cfg
	refs, err := corpus.ListWALSegments(cfg.WALPath)
	if err != nil {
		return fmt.Errorf("collector: listing WAL segments: %v", err)
	}

	// Baseline the sequence counter at the checkpoint's coverage so
	// fresh appends never collide even if the tail segments vanished.
	watermark, islands := s.seqs.capture()
	s.walSeq = watermark
	for _, x := range islands {
		if x > s.walSeq {
			s.walSeq = x
		}
	}

	type segState struct {
		ref    corpus.WALSegmentRef
		replay *corpus.WALReplay
	}
	var (
		states  []segState
		lastSeq uint64
	)
	for i, ref := range refs {
		rep, err := corpus.ReplayWALFile(ref.Path, cfg.NumSites, cfg.NumPreds, cfg.Fingerprint)
		if err != nil {
			return fmt.Errorf("collector: WAL replay %s: %v (move the segment aside to boot without it)", ref.Path, err)
		}
		if rep == nil {
			continue
		}
		if rep.Torn && i != len(refs)-1 {
			return fmt.Errorf("collector: WAL segment %s is torn mid-sequence; only the newest segment may have a torn tail (move the damaged segments aside to boot without them)", ref.Path)
		}
		if rep.Torn {
			s.walTornTails.Add(1)
			cfg.Logf("collector: WAL %s has a torn tail; keeping %d valid bytes", ref.Path, rep.ValidBytes)
		}
		for _, rec := range rep.Records {
			if rec.Seq <= lastSeq {
				return fmt.Errorf("collector: WAL %s: sequence %d out of order (last %d); segments disagree (move the damaged segments aside)", ref.Path, rec.Seq, lastSeq)
			}
			lastSeq = rec.Seq
			s.applyWALRecord(rec)
		}
		states = append(states, segState{ref: ref, replay: rep})
	}
	if lastSeq > s.walSeq {
		s.walSeq = lastSeq
	}

	if len(states) == 0 {
		s.walIndex = 1
		w, err := corpus.CreateWALSegment(corpus.WALSegmentName(cfg.WALPath, 1), cfg.NumSites, cfg.NumPreds, cfg.Fingerprint)
		if err != nil {
			return fmt.Errorf("collector: creating WAL segment: %v", err)
		}
		s.wal = w
		return nil
	}
	last := states[len(states)-1]
	for _, st := range states[:len(states)-1] {
		s.walPrev = append(s.walPrev, walSegment{
			path:   st.ref.Path,
			maxSeq: st.replay.MaxSeq,
			size:   st.replay.ValidBytes,
		})
	}
	s.walIndex = last.ref.Index
	w, err := corpus.OpenWALSegment(last.ref.Path, cfg.NumSites, cfg.NumPreds, cfg.Fingerprint, last.replay.ValidBytes)
	if err != nil {
		return fmt.Errorf("collector: opening WAL segment %s: %v", last.ref.Path, err)
	}
	s.wal = w
	if n := s.walReplayed.Value(); n > 0 {
		cfg.Logf("collector: replayed %d WAL records (through sequence %d)", n, lastSeq)
	}
	return nil
}

// applyWALRecord re-applies one replayed record unless the checkpoint
// already covers its sequence. Batch ids are re-remembered either way,
// so post-restart client retries still dedup and replayed batches stay
// revocable.
func (s *Server) applyWALRecord(rec *corpus.WALRecord) {
	covered := s.seqs.applied(rec.Seq)
	switch rec.Kind {
	case corpus.WALBatch, corpus.WALKeyedBatch:
		if rec.BatchID != "" {
			s.rememberBatch(rec.BatchID)
		}
		if !covered {
			s.agg.ApplyBatch(rec.Reports, rec.Recs, rec.Key, func(recs [][]byte) {
				s.seqs.markApplied(rec.Seq)
				if rec.BatchID != "" {
					s.storeBatchRecs(rec.BatchID, recs)
				}
			})
			s.walReplayed.Add(1)
		} else if rec.BatchID != "" {
			// Already in the checkpoint; restore the revoke records so a
			// failover repair arriving after the restart still works.
			s.storeBatchRecs(rec.BatchID, rec.Recs)
		}
	case corpus.WALMerge:
		if rec.BatchID != "" {
			s.rememberBatch(rec.BatchID)
		}
		if !covered {
			s.agg.MergeSegment(rec.Snap, rec.Recs, rec.Keys, func(recs [][]byte) {
				s.seqs.markApplied(rec.Seq)
				if rec.BatchID != "" {
					s.storeBatchRecs(rec.BatchID, recs)
				}
			})
			s.walReplayed.Add(1)
		}
	case corpus.WALEvict:
		// A migration handoff eviction: re-remove the exact records the
		// live eviction removed. Records the checkpoint (or an earlier
		// replayed evict) already dropped are simply not found, so the
		// replay is idempotent and coverage marks are advisory.
		if !covered {
			if removed := s.agg.RemoveRecords(rec.Recs); len(removed) > 0 {
				s.migrateEvicted.Add(int64(len(removed)))
			}
			s.seqs.markApplied(rec.Seq)
			s.walReplayed.Add(1)
		}
	case corpus.WALDrainResidual:
		// A committed drain-residual subtraction. Unlike evict replay
		// this is not idempotent, so coverage is load-bearing: the
		// commit's markApplied runs under the same aggregate hold as the
		// subtraction, and a checkpoint can never capture one without
		// the other.
		if rec.BatchID != "" {
			s.rememberBatch(rec.BatchID)
		}
		if !covered {
			if err := s.agg.SubtractSnapshot(rec.Snap, func() { s.seqs.markApplied(rec.Seq) }); err != nil {
				s.cfg.Logf("collector: WAL drain-residual replay: %v", err)
			}
			s.walReplayed.Add(1)
		}
	case corpus.WALRevoke:
		if !covered {
			for _, id := range rec.IDs {
				if n := s.revokeBatch(id); n > 0 {
					s.revokedBatches.Add(1)
					s.revokedRuns.Add(int64(n))
				}
			}
			s.seqs.markApplied(rec.Seq)
			s.walReplayed.Add(1)
		}
	}
}

// pruneWAL drops WAL state a checkpoint covering sequence `covered` no
// longer needs: the current segment is truncated in place when fully
// covered, or rotated out so replay cost stays proportional to data
// since the last checkpoint; closed segments whose newest record is
// covered are deleted.
func (s *Server) pruneWAL(covered uint64) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return
	}
	if s.walSeq <= covered && len(s.walPrev) == 0 {
		if !s.wal.Empty() {
			if err := s.wal.Truncate(); err != nil {
				s.cfg.Logf("collector: truncating WAL: %v", err)
			} else {
				s.walTruncations.Add(1)
			}
		}
		return
	}
	if !s.wal.Empty() {
		next := s.walIndex + 1
		nw, err := corpus.CreateWALSegment(corpus.WALSegmentName(s.cfg.WALPath, next), s.cfg.NumSites, s.cfg.NumPreds, s.cfg.Fingerprint)
		if err != nil {
			s.cfg.Logf("collector: rotating WAL: %v", err)
		} else {
			closed := walSegment{path: s.wal.Path(), maxSeq: s.walSeq, size: s.wal.Size()}
			if err := s.wal.Close(); err != nil {
				s.cfg.Logf("collector: closing WAL segment: %v", err)
			}
			s.walPrev = append(s.walPrev, closed)
			s.wal, s.walIndex = nw, next
		}
	}
	keep := s.walPrev[:0]
	for _, seg := range s.walPrev {
		if seg.maxSeq > covered {
			keep = append(keep, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			s.cfg.Logf("collector: removing covered WAL segment %s: %v", seg.path, err)
			keep = append(keep, seg)
			continue
		}
		s.walTruncations.Add(1)
	}
	s.walPrev = keep
}

// revokeBatch removes one batch's retained runs from the aggregate (by
// the encoded records remembered at apply time), returning how many
// runs were removed. The id is remembered regardless, so a late client
// retry of the revoked batch cannot re-ingest it.
func (s *Server) revokeBatch(id string) int {
	s.rememberBatch(id)
	recs := s.takeBatchRecs(id)
	if len(recs) == 0 {
		return 0
	}
	return len(s.agg.RemoveRecords(recs))
}

// handleRevoke removes previously ingested batches by id — the
// failover double-count repair: when a router re-routes an
// unacknowledged batch to another shard and the original later turns
// out to have applied it too, the router revokes it here so the fleet
// total converges to exactly one copy. Only batches whose runs are
// still retained (and whose ids are still in the dedup window) can be
// removed; the response reports what actually happened. Revokes are
// themselves WAL-logged so the repair survives a crash before the next
// checkpoint.
func (s *Server) handleRevoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	var req struct {
		IDs []string `json:"ids"`
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad revoke request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.IDs) > maxRevokeIDs {
		http.Error(w, fmt.Sprintf("too many ids (%d > %d)", len(req.IDs), maxRevokeIDs), http.StatusBadRequest)
		return
	}
	batches, runs := 0, 0
	var revoked []string
	for _, id := range req.IDs {
		if id == "" || len(id) > 1024 {
			continue
		}
		if n := s.revokeBatch(id); n > 0 {
			batches++
			runs += n
			revoked = append(revoked, id)
		}
	}
	if batches > 0 {
		s.revokedBatches.Add(int64(batches))
		s.revokedRuns.Add(int64(runs))
		s.cfg.Logf("collector: revoked %d batches (%d runs)", batches, runs)
		if s.cfg.WALPath != "" {
			// Logged after the removal (the state change is already
			// visible); a crash in between loses only the WAL record, and
			// the router's retry converges the repair.
			if seq, err := s.walAppend(&corpus.WALRecord{Kind: corpus.WALRevoke, IDs: revoked}); err != nil {
				s.cfg.Logf("collector: WAL revoke record: %v", err)
			} else {
				s.seqs.markApplied(seq)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"revoked_batches":%d,"revoked_runs":%d}`+"\n", batches, runs)
}

// IngestBatch ingests one batch through the full durability path — WAL
// append (when enabled), batch-atomic apply, dedup and revoke
// bookkeeping — without HTTP. It is what crash tests and ingest
// benchmarks use to exercise exactly the semantics of POST /v1/reports
// minus transport.
func (s *Server) IngestBatch(id string, reports []*report.Report) error {
	if len(reports) == 0 {
		return nil
	}
	if id != "" && s.rememberBatch(id) {
		s.batchesDeduped.Add(1)
		return nil
	}
	var seq uint64
	encoded := report.EncodeRecords(reports)
	if s.cfg.WALPath != "" {
		var err error
		seq, err = s.walAppend(&corpus.WALRecord{Kind: corpus.WALBatch, BatchID: id, Recs: encoded})
		if err != nil {
			if id != "" {
				s.forgetBatch(id)
			}
			return err
		}
	}
	s.reportsEnqueued.Add(int64(len(reports)))
	s.agg.ApplyBatch(reports, encoded, corpus.NoKey, func(recs [][]byte) {
		s.seqs.markApplied(seq)
		if id != "" {
			s.storeBatchRecs(id, recs)
		}
	})
	s.reportsApplied.Add(int64(len(reports)))
	s.batchesAccepted.Add(1)
	return nil
}

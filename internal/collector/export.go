package collector

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"cbi/internal/corpus"
	"cbi/internal/report"
)

// This file is the collector's side of live ring-resize migration: a
// controller (internal/migrate) streams a shard's retained runs for
// the key ranges a resize reassigns to their new owner, then evicts
// them here once the destination has acked. The protocol is exact
// under crashes on either side:
//
//	POST /v1/export  → next chunk of matching runs past a sequence
//	                   watermark, with counters computed from exactly
//	                   those runs, read-only (delivered to the
//	                   destination via the ordinary /v1/merge with a
//	                   deterministic batch id, so retries dedup);
//	POST /v1/evict   → the delivered chunk posted back verbatim; the
//	                   exact records it carries are removed and
//	                   un-counted, WAL-logged so the handoff survives
//	                   a source crash. Removing an absent record is a
//	                   no-op, so the call is idempotent — lost acks
//	                   and crash repairs just retry it;
//	GET  /v1/residual → the counters a full drain cannot attribute to
//	                   retained runs (beyond-window history), read-only;
//	POST /v1/residual → commit the residual subtraction after the
//	                   destination acked it, WAL-logged and deduped.
//
// Export sequences are scoped to a per-boot epoch: a restarted source
// renumbers its log, so an export names the epoch it is resuming
// within and gets 409 on a mismatch — the controller's signal to
// retry the one possibly-unevicted chunk and re-export from zero.
// Eviction needs no epoch: it names records, not sequences.

// defaultExportChunkRuns bounds one export chunk when the request does
// not say otherwise.
const defaultExportChunkRuns = 4096

// maxExportRequestBytes bounds the JSON control body of /v1/export.
const maxExportRequestBytes = 1 << 20

// exportRequest is the JSON body of POST /v1/export. Epochs are
// decimal strings, not JSON numbers: they are random 64-bit values and
// would not survive a float64 round-trip.
type exportRequest struct {
	// Ranges selects the hash-circle arcs to migrate. Null (absent)
	// with Drain set selects every retained run, keyed or not.
	Ranges []corpus.KeyRange `json:"ranges"`
	// SinceSeq resumes the export past this append-sequence watermark.
	SinceSeq uint64 `json:"since_seq"`
	// Epoch is the per-boot epoch the sequences are scoped to, as a
	// decimal string. Empty on a first export (the response names the
	// current epoch).
	Epoch string `json:"epoch,omitempty"`
	// MaxRuns bounds the chunk (default 4096).
	MaxRuns int `json:"max_runs,omitempty"`
	// Drain selects every retained run regardless of key — removing a
	// collector is a migration of everything.
	Drain bool `json:"drain,omitempty"`
}

// decodeExportRequest reads and validates the shared request shape.
func decodeExportRequest(w http.ResponseWriter, r *http.Request) (*exportRequest, bool) {
	var req exportRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxExportRequestBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad migration request: %v", err), http.StatusBadRequest)
		return nil, false
	}
	if !req.Drain && len(req.Ranges) == 0 {
		http.Error(w, "migration request needs ranges (or drain)", http.StatusBadRequest)
		return nil, false
	}
	if req.Drain {
		// nil ranges is the run-log's drain selector (every run matches).
		req.Ranges = nil
	}
	return &req, true
}

// checkEpoch enforces the request's epoch against the current boot.
// An empty epoch (first contact) passes. On mismatch it writes the 409
// — carrying the current epoch so the controller can resume — and
// returns false.
func (s *Server) checkEpoch(w http.ResponseWriter, epoch string, required bool) bool {
	cur := s.agg.Epoch()
	if epoch == "" {
		if required {
			http.Error(w, "migration request needs the export epoch", http.StatusBadRequest)
			return false
		}
		return true
	}
	want, err := strconv.ParseUint(epoch, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad epoch %q", epoch), http.StatusBadRequest)
		return false
	}
	if want != cur {
		w.Header().Set("X-CBI-Export-Epoch", strconv.FormatUint(cur, 10))
		http.Error(w, "export epoch does not match this boot (the source restarted; resume from sequence 0)", http.StatusConflict)
		return false
	}
	return true
}

// countingWriter counts the bytes written through it (the compressed
// export size, for the transferred-bytes metric).
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// handleExport serves the next migration chunk: up to max_runs retained
// runs in the requested ranges past since_seq, as a gzip'd keyed merge
// segment whose counters are computed from exactly those runs. The
// response headers carry the epoch, the watermark to resume from, and
// how many matching runs remain past it (zero = the caller has it all,
// modulo writes still arriving).
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	req, ok := decodeExportRequest(w, r)
	if !ok {
		return
	}
	if !s.checkEpoch(w, req.Epoch, false) {
		return
	}
	max := req.MaxRuns
	if max <= 0 {
		max = defaultExportChunkRuns
	}
	chunk, err := s.agg.ExportChunk(req.Ranges, req.SinceSeq, max)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	chunk.snap.Fingerprint = s.cfg.Fingerprint

	w.Header().Set("Content-Type", "application/x-cbi-merge+gzip")
	w.Header().Set("X-CBI-Export-Epoch", strconv.FormatUint(chunk.epoch, 10))
	w.Header().Set("X-CBI-Export-Watermark", strconv.FormatUint(chunk.watermark, 10))
	w.Header().Set("X-CBI-Export-Remaining", strconv.Itoa(chunk.remaining))
	cw := &countingWriter{w: w}
	err = report.Gzip(cw, func(gz io.Writer) error {
		return corpus.WriteMergeSegmentRecords(gz, chunk.snap, s.cfg.NumSites, s.cfg.NumPreds, chunk.recs, chunk.keys)
	})
	if err != nil {
		s.cfg.Logf("collector: export chunk: %v", err)
		return
	}
	s.exportChunks.Add(1)
	s.exportRuns.Add(int64(len(chunk.recs)))
	s.exportBytes.Add(cw.n)
	s.exportPending.Set(float64(chunk.remaining))
	s.cfg.Logf("collector: exported migration chunk (%d runs, %d remaining, watermark %d)",
		len(chunk.recs), chunk.remaining, chunk.watermark)
}

// handleEvict completes a handoff: the body is the delivered export
// chunk posted back verbatim (a gzip'd merge segment), and the exact
// records it carries are removed from the run log and un-counted. The
// eviction is WAL-logged with the removed records, so a source crash
// cannot resurrect handed-off runs. Removing a record that is not
// retained is a no-op, which makes the call idempotent: after a lost
// ack or a source restart the controller simply posts the same chunk
// again, and whatever the first attempt already removed stays removed
// exactly once. No epoch check — the request names records, not
// boot-scoped sequences.
func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.authorize(w, r) {
		return
	}
	reader, closer, ok := s.postBodyReader(w, r)
	if !ok {
		return
	}
	if closer != nil {
		defer closer.Close()
	}
	snap, recs, _, err := corpus.ReadMergeSegmentKeyed(reader)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad evict chunk: %v", err), http.StatusBadRequest)
		return
	}
	if snap.NumSites != s.cfg.NumSites || snap.NumPreds != s.cfg.NumPreds {
		http.Error(w, fmt.Sprintf("evict dimensions %dx%d do not match collector %dx%d",
			snap.NumSites, snap.NumPreds, s.cfg.NumSites, s.cfg.NumPreds), http.StatusBadRequest)
		return
	}
	removed := s.agg.RemoveRecords(recs)
	if len(removed) > 0 {
		s.migrateEvicted.Add(int64(len(removed)))
		if s.cfg.WALPath != "" {
			// Logged after the removal, like revokes: the state change is
			// already visible, and a crash in between merely resurrects
			// runs whose eviction the controller has not yet seen acked —
			// which it repairs by posting the same chunk again.
			if seq, err := s.walAppend(&corpus.WALRecord{Kind: corpus.WALEvict, Recs: removed}); err != nil {
				s.cfg.Logf("collector: WAL evict record: %v", err)
			} else {
				s.seqs.markApplied(seq)
			}
		}
		s.cfg.Logf("collector: evicted %d handed-off runs", len(removed))
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"evicted_runs":%d}`+"\n", len(removed))
}

// handleResidual is the drain residual in two steps. GET computes,
// read-only, the counters the retained run window does not explain
// (beyond-window history from merges and evictions) as a gzip'd
// counters-only merge segment — 204 when there is none. POST commits
// the subtraction of exactly the posted segment after the controller
// has delivered it to a successor; the commit is WAL-logged ('D') and
// deduped by X-CBI-Batch-ID, so lost-ack retries and crash replays
// subtract exactly once. Compute → deliver (idempotent) → commit is
// exact under a crash at any step: a quiesced drain recomputes the
// identical residual and the destination's dedup absorbs the repeat.
func (s *Server) handleResidual(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		residual, err := s.agg.ComputeResidual()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-CBI-Export-Epoch", strconv.FormatUint(s.agg.Epoch(), 10))
		if residual == nil {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		residual.Fingerprint = s.cfg.Fingerprint
		w.Header().Set("Content-Type", "application/x-cbi-merge+gzip")
		err = report.Gzip(w, func(gz io.Writer) error {
			return corpus.WriteMergeSegmentRecords(gz, residual, s.cfg.NumSites, s.cfg.NumPreds, nil, nil)
		})
		if err != nil {
			s.cfg.Logf("collector: residual export: %v", err)
		}
	case http.MethodPost:
		if !s.authorize(w, r) {
			return
		}
		reader, closer, ok := s.postBodyReader(w, r)
		if !ok {
			return
		}
		if closer != nil {
			defer closer.Close()
		}
		snap, _, _, err := corpus.ReadMergeSegmentKeyed(reader)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad residual segment: %v", err), http.StatusBadRequest)
			return
		}
		if snap.NumSites != s.cfg.NumSites || snap.NumPreds != s.cfg.NumPreds {
			http.Error(w, fmt.Sprintf("residual dimensions %dx%d do not match collector %dx%d",
				snap.NumSites, snap.NumPreds, s.cfg.NumSites, s.cfg.NumPreds), http.StatusBadRequest)
			return
		}
		batchID := r.Header.Get("X-CBI-Batch-ID")
		if batchID != "" && s.rememberBatch(batchID) {
			s.batchesDeduped.Add(1)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"committed":true,"duplicate":true}`+"\n")
			return
		}
		var seq uint64
		if s.cfg.WALPath != "" {
			var werr error
			seq, werr = s.walAppend(&corpus.WALRecord{Kind: corpus.WALDrainResidual, BatchID: batchID, Snap: snap})
			if werr != nil {
				if batchID != "" {
					s.forgetBatch(batchID)
				}
				s.cfg.Logf("collector: WAL append: %v", werr)
				http.Error(w, "write-ahead log append failed", http.StatusInternalServerError)
				return
			}
		}
		if err := s.agg.SubtractSnapshot(snap, func() { s.seqs.markApplied(seq) }); err != nil {
			if batchID != "" {
				s.forgetBatch(batchID)
			}
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		s.residualCommits.Add(1)
		s.cfg.Logf("collector: committed drain-residual subtraction (%d runs)", snap.NumF+snap.NumS)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"committed":true}`+"\n")
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"cbi/internal/core"
	"cbi/internal/report"
)

// aggSnapVersion is bumped on breaking aggregate-snapshot changes.
// Version 2 added the LOGGED line and version 3 the WALSEQ line
// (write-ahead-log applied watermark + islands). Only version 3 is
// written; versions 1 and 2 still load — merge segments travel between
// binaries — with Logged reported as unknown (-1) for version 1 and no
// WAL coverage for either.
const aggSnapVersion = 3

// maxWALIslands bounds the islands list a hostile WALSEQ line may
// demand. Real islands are bounded by the collector's in-flight batch
// count (at most the ingest queue), never anywhere near this.
const maxWALIslands = 1 << 20

// AggSnapshot is a persisted aggregate state: the per-site observation
// tallies and per-predicate truth tallies a streaming collector
// maintains, split by run outcome, plus the set-level run counts. It is
// the durable form of a live collector's counters — everything needed
// to serve /v1/scores and /v1/stats — without the reports themselves,
// so its size is O(sites + preds) no matter how many runs were
// ingested.
type AggSnapshot struct {
	NumSites int
	NumPreds int
	// Fingerprint identifies the instrumentation plan the counters are
	// for (0 when the collector was started without a plan).
	Fingerprint uint64
	// NumF and NumS are the failing and successful run counts.
	NumF, NumS int64
	// FobsSite and SobsSite count, per site, the failing/successful runs
	// that observed the site.
	FobsSite, SobsSite []int64
	// FPred and SPred count, per predicate, the failing/successful runs
	// in which the predicate was observed true.
	FPred, SPred []int64
	// Logged records how many retained runs the run window held when
	// this snapshot was captured. Only the legacy-pair importer (cbi
	// merge) reads it, to tell a torn snapshot/.runs pair (recount from
	// the log) from counters that legitimately cover more runs than the
	// retained window (merged-in shard state whose own windows had
	// evicted runs). -1 means unknown (a version-1 file).
	Logged int64
	// WALSeq is the write-ahead-log applied watermark at capture: every
	// WAL record with sequence <= WALSeq is reflected in the counters.
	// WALIslands lists applied sequences above the watermark (batches
	// that finished out of order while earlier ones were still queued).
	// Both are zero/empty outside a WAL-enabled collector's checkpoints.
	WALSeq     uint64
	WALIslands []uint64
}

// NewAggSnapshot returns an all-zero snapshot for the given dimensions
// — the identity element reducers start from when folding shard
// snapshots with MergeAggSnapshot.
func NewAggSnapshot(numSites, numPreds int) *AggSnapshot {
	return &AggSnapshot{
		NumSites: numSites,
		NumPreds: numPreds,
		FobsSite: make([]int64, numSites),
		SobsSite: make([]int64, numSites),
		FPred:    make([]int64, numPreds),
		SPred:    make([]int64, numPreds),
	}
}

// MergeAggSnapshot folds src into dst element-wise. Because every
// counter is a sum over independent runs, merging is exact and
// commutative: folding N shard snapshots in any order yields exactly
// the snapshot one collector would have produced ingesting all their
// runs. Dimensions must match; fingerprints must agree where both are
// set (dst adopts src's fingerprint when it has none).
func MergeAggSnapshot(dst, src *AggSnapshot) error {
	if src.NumSites != dst.NumSites || src.NumPreds != dst.NumPreds {
		return fmt.Errorf("corpus: merging snapshot %dx%d into %dx%d",
			src.NumSites, src.NumPreds, dst.NumSites, dst.NumPreds)
	}
	if len(src.FobsSite) != src.NumSites || len(src.SobsSite) != src.NumSites ||
		len(src.FPred) != src.NumPreds || len(src.SPred) != src.NumPreds ||
		len(dst.FobsSite) != dst.NumSites || len(dst.SobsSite) != dst.NumSites ||
		len(dst.FPred) != dst.NumPreds || len(dst.SPred) != dst.NumPreds {
		return fmt.Errorf("corpus: snapshot slice lengths disagree with dimensions")
	}
	switch {
	case dst.Fingerprint == 0:
		dst.Fingerprint = src.Fingerprint
	case src.Fingerprint != 0 && src.Fingerprint != dst.Fingerprint:
		return fmt.Errorf("corpus: merging snapshot fingerprint %d into %d",
			src.Fingerprint, dst.Fingerprint)
	}
	dst.NumF += src.NumF
	dst.NumS += src.NumS
	for i, v := range src.FobsSite {
		dst.FobsSite[i] += v
	}
	for i, v := range src.SobsSite {
		dst.SobsSite[i] += v
	}
	for i, v := range src.FPred {
		dst.FPred[i] += v
	}
	for i, v := range src.SPred {
		dst.SPred[i] += v
	}
	return nil
}

// ToAgg converts the snapshot counters into a core.Agg, attaching each
// predicate's site-observation counts via siteOf — the exact shape
// core.Aggregate produces, so all of core's scoring applies to merged
// shard state unchanged.
func (snap *AggSnapshot) ToAgg(siteOf []int32) *core.Agg {
	agg := &core.Agg{
		Stats: make([]core.Stats, snap.NumPreds),
		NumF:  int(snap.NumF),
		NumS:  int(snap.NumS),
	}
	for p := 0; p < snap.NumPreds; p++ {
		site := siteOf[p]
		agg.Stats[p] = core.Stats{
			F:    int(snap.FPred[p]),
			S:    int(snap.SPred[p]),
			Fobs: int(snap.FobsSite[site]),
			Sobs: int(snap.SobsSite[site]),
		}
	}
	return agg
}

// SaveAggSnapshot writes the snapshot in a line-oriented text format:
//
//	cbi-aggsnap 3 <numSites> <numPreds> <fingerprint> <numF> <numS>
//	FOBS <numSites ints>
//	SOBS <numSites ints>
//	FPRED <numPreds ints>
//	SPRED <numPreds ints>
//	LOGGED <runs in the run window at capture>
//	WALSEQ <watermark> <island>...
func SaveAggSnapshot(w io.Writer, snap *AggSnapshot) error {
	if len(snap.FobsSite) != snap.NumSites || len(snap.SobsSite) != snap.NumSites ||
		len(snap.FPred) != snap.NumPreds || len(snap.SPred) != snap.NumPreds {
		return fmt.Errorf("corpus: snapshot slice lengths disagree with dimensions")
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cbi-aggsnap %d %d %d %d %d %d\n",
		aggSnapVersion, snap.NumSites, snap.NumPreds, snap.Fingerprint, snap.NumF, snap.NumS)
	for _, sec := range []struct {
		tag string
		xs  []int64
	}{
		{"FOBS", snap.FobsSite}, {"SOBS", snap.SobsSite},
		{"FPRED", snap.FPred}, {"SPRED", snap.SPred},
	} {
		bw.WriteString(sec.tag)
		for _, x := range sec.xs {
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatInt(x, 10))
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintf(bw, "LOGGED %d\nWALSEQ %d", snap.Logged, snap.WALSeq)
	for _, s := range snap.WALIslands {
		bw.WriteByte(' ')
		bw.WriteString(strconv.FormatUint(s, 10))
	}
	bw.WriteByte('\n')
	return bw.Flush()
}

// LoadAggSnapshot reads a snapshot written by SaveAggSnapshot.
func LoadAggSnapshot(r io.Reader) (*AggSnapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	if !sc.Scan() {
		return nil, fmt.Errorf("corpus: empty aggregate snapshot")
	}
	snap := &AggSnapshot{}
	var version int
	if _, err := fmt.Sscanf(sc.Text(), "cbi-aggsnap %d %d %d %d %d %d",
		&version, &snap.NumSites, &snap.NumPreds, &snap.Fingerprint, &snap.NumF, &snap.NumS); err != nil {
		return nil, fmt.Errorf("corpus: bad aggsnap header %q: %v", sc.Text(), err)
	}
	if version < 1 || version > aggSnapVersion {
		return nil, fmt.Errorf("corpus: unsupported aggsnap version %d", version)
	}
	if snap.NumSites < 0 || snap.NumPreds < 0 || snap.NumF < 0 || snap.NumS < 0 {
		return nil, fmt.Errorf("corpus: negative aggsnap dimensions")
	}
	for _, sec := range []struct {
		tag string
		n   int
		dst *[]int64
	}{
		{"FOBS", snap.NumSites, &snap.FobsSite}, {"SOBS", snap.NumSites, &snap.SobsSite},
		{"FPRED", snap.NumPreds, &snap.FPred}, {"SPRED", snap.NumPreds, &snap.SPred},
	} {
		if !sc.Scan() {
			return nil, fmt.Errorf("corpus: aggsnap missing %s section: %v", sec.tag, sc.Err())
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != sec.tag {
			return nil, fmt.Errorf("corpus: aggsnap expected %s section, got %q", sec.tag, sc.Text())
		}
		if len(fields)-1 != sec.n {
			return nil, fmt.Errorf("corpus: aggsnap %s has %d entries, want %d", sec.tag, len(fields)-1, sec.n)
		}
		xs := make([]int64, sec.n)
		for i, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("corpus: aggsnap %s entry %d: %v", sec.tag, i, err)
			}
			xs[i] = v
		}
		*sec.dst = xs
	}
	if version < 2 {
		snap.Logged = -1
		return snap, nil
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("corpus: aggsnap missing LOGGED line: %v", sc.Err())
	}
	if _, err := fmt.Sscanf(sc.Text(), "LOGGED %d", &snap.Logged); err != nil {
		return nil, fmt.Errorf("corpus: bad aggsnap LOGGED line %q: %v", sc.Text(), err)
	}
	if version < 3 {
		return snap, nil
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("corpus: aggsnap missing WALSEQ line: %v", sc.Err())
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 2 || fields[0] != "WALSEQ" {
		return nil, fmt.Errorf("corpus: bad aggsnap WALSEQ line %q", sc.Text())
	}
	if len(fields)-2 > maxWALIslands {
		return nil, fmt.Errorf("corpus: aggsnap lists %d WAL islands", len(fields)-2)
	}
	w, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("corpus: bad aggsnap WALSEQ watermark %q: %v", fields[1], err)
	}
	snap.WALSeq = w
	for _, f := range fields[2:] {
		s, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("corpus: bad aggsnap WALSEQ island %q: %v", f, err)
		}
		if s <= snap.WALSeq {
			return nil, fmt.Errorf("corpus: aggsnap WAL island %d not above watermark %d", s, snap.WALSeq)
		}
		snap.WALIslands = append(snap.WALIslands, s)
	}
	return snap, nil
}

// Clone returns a deep copy of the snapshot. Warm gateway views hand
// out clones so in-place delta application never races a reader.
func (snap *AggSnapshot) Clone() *AggSnapshot {
	dup := *snap
	dup.FobsSite = append([]int64(nil), snap.FobsSite...)
	dup.SobsSite = append([]int64(nil), snap.SobsSite...)
	dup.FPred = append([]int64(nil), snap.FPred...)
	dup.SPred = append([]int64(nil), snap.SPred...)
	dup.WALIslands = append([]uint64(nil), snap.WALIslands...)
	return &dup
}

// ApplyReport folds one run into (delta=+1) or out of (delta=-1) the
// snapshot counters — exactly the per-run bump a live collector
// performs, so replaying a delta stream of appends and evictions
// reproduces the collector's counters bit for bit.
func (snap *AggSnapshot) ApplyReport(r *report.Report, delta int64) {
	snap.apply(r.Failed, r.ObservedSites, r.TruePreds, delta)
}

// ApplyRecords is ApplyReport over canonical run records, walking each
// record's ids into one reused slab instead of materializing reports.
// It fails on a record that does not walk.
func (snap *AggSnapshot) ApplyRecords(recs [][]byte, delta int64) error {
	var slab []int32
	for i, rec := range recs {
		ids, sites, failed, err := report.AppendRecordIDs(slab[:0], rec, snap.NumSites, snap.NumPreds)
		if err != nil {
			return fmt.Errorf("corpus: record %d: %v", i, err)
		}
		snap.apply(failed, ids[:sites], ids[sites:], delta)
		slab = ids
	}
	return nil
}

func (snap *AggSnapshot) apply(failed bool, sites, preds []int32, delta int64) {
	obs, pred := snap.SobsSite, snap.SPred
	if failed {
		obs, pred = snap.FobsSite, snap.FPred
		snap.NumF += delta
	} else {
		snap.NumS += delta
	}
	for _, s := range sites {
		obs[s] += delta
	}
	for _, p := range preds {
		pred[p] += delta
	}
}

// mergeSegVersion is bumped on breaking merge-segment changes.
// Version 1 is snapshot + run window; version 2 appends a per-record
// routing-key section and is only written when at least one record
// actually carries a key, so deployments that never migrate keep
// emitting byte-identical v1 segments.
const (
	mergeSegVersion      = 1
	mergeSegVersionKeyed = 2
)

// maxMergeSnapBytes bounds the snapshot part of a merge segment so a
// hostile header cannot demand an absurd allocation (a real snapshot is
// O(sites+preds) decimal integers).
const maxMergeSnapBytes = 1 << 28

// WriteMergeSegmentRecords writes one shard's exported state — its
// counter snapshot plus its retained run window as a binary report set
// — as a single framed stream:
//
//	cbi-merge <version> <snapshotBytes>
//	<snapshotBytes bytes of SaveAggSnapshot text>
//	<report.Set binary wire format>
//	[key section, version 2 only]
//
// This is the payload of the collector's POST /v1/merge endpoint and
// GET /v1/snapshot export, and (gzip'd) the checkpoint file: together
// the two parts let a reducer fold N shard states into one exact global
// state (counters add, run windows concatenate). The run window is
// written from encoded run-log records (canonical report.AppendRecord
// bytes — the set body is exactly their concatenation) carrying a
// routing-key hash per record (keys[i] belongs to recs[i]; see
// KeyHash). When keys is nil, or every key is NoKey, the output is a
// plain v1 segment; otherwise a v2 segment with a key section — a
// uvarint count followed by that many uvarint keys — after the run
// window. Keys let migrated runs stay addressable by range on the
// destination shard, so a later resize can move them again.
func WriteMergeSegmentRecords(w io.Writer, snap *AggSnapshot, numSites, numPreds int, recs [][]byte, keys []uint64) error {
	if numSites != snap.NumSites || numPreds != snap.NumPreds {
		return fmt.Errorf("corpus: merge segment set dimensions %dx%d disagree with snapshot %dx%d",
			numSites, numPreds, snap.NumSites, snap.NumPreds)
	}
	keyed := false
	if keys != nil {
		if len(keys) != len(recs) {
			return fmt.Errorf("corpus: merge segment has %d keys for %d records", len(keys), len(recs))
		}
		for _, k := range keys {
			if k != NoKey {
				keyed = true
				break
			}
		}
	}
	version := mergeSegVersion
	if keyed {
		version = mergeSegVersionKeyed
	}
	var buf bytes.Buffer
	if err := SaveAggSnapshot(&buf, snap); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "cbi-merge %d %d\n", version, buf.Len()); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	if err := report.MarshalRecords(w, numSites, numPreds, recs); err != nil {
		return err
	}
	if !keyed {
		return nil
	}
	kb := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		kb = binary.AppendUvarint(kb, k)
	}
	_, err := w.Write(kb)
	return err
}

// ReadMergeSegmentKeyed reads r to EOF and parses it as exactly one
// merge segment (see parseMergeSegment): a read error anywhere — a
// corrupt gzip trailer, say — or a byte after the segment rejects it.
func ReadMergeSegmentKeyed(r io.Reader) (*AggSnapshot, [][]byte, []uint64, error) {
	// A bytes.Buffer doubles as it fills; io.ReadAll's gentler growth
	// copies a multi-megabyte segment several times over.
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: merge segment: %v", err)
	}
	return parseMergeSegment(buf.Bytes())
}

// parseMergeSegment parses buf as exactly one merge segment, validating
// that its two parts describe the same predicate universe. It returns
// the window's canonical records (report.SetRecords: spans of buf where
// the sender's bytes are canonical, so a holder that retains one must
// copy it) and, for a keyed (v2) segment, the per-record routing-key
// hashes aligned with them; for a v1 segment keys == nil. It is safe on
// hostile input: allocation is bounded by len(buf) and errors are
// returned rather than panicking.
func parseMergeSegment(buf []byte) (*AggSnapshot, [][]byte, []uint64, error) {
	nl := bytes.IndexByte(buf, '\n')
	if nl < 0 {
		return nil, nil, nil, fmt.Errorf("corpus: merge segment header: %v", io.ErrUnexpectedEOF)
	}
	line := string(buf[:nl+1])
	var version, snapLen int
	if _, err := fmt.Sscanf(line, "cbi-merge %d %d", &version, &snapLen); err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: bad merge segment header %q: %v", strings.TrimSpace(line), err)
	}
	if version != mergeSegVersion && version != mergeSegVersionKeyed {
		return nil, nil, nil, fmt.Errorf("corpus: unsupported merge segment version %d", version)
	}
	if snapLen <= 0 || snapLen > maxMergeSnapBytes {
		return nil, nil, nil, fmt.Errorf("corpus: merge segment snapshot length %d out of range", snapLen)
	}
	rest := buf[nl+1:]
	if snapLen > len(rest) {
		return nil, nil, nil, fmt.Errorf("corpus: merge segment snapshot: %v", io.ErrUnexpectedEOF)
	}
	snap, err := LoadAggSnapshot(bytes.NewReader(rest[:snapLen]))
	if err != nil {
		return nil, nil, nil, err
	}
	rest = rest[snapLen:]
	numSites, numPreds, recs, end, err := report.SetRecords(rest)
	if err != nil {
		return nil, nil, nil, err
	}
	if numSites != snap.NumSites || numPreds != snap.NumPreds {
		return nil, nil, nil, fmt.Errorf("corpus: merge segment set dimensions %dx%d disagree with snapshot %dx%d",
			numSites, numPreds, snap.NumSites, snap.NumPreds)
	}
	if int64(len(recs)) > snap.NumF+snap.NumS {
		return nil, nil, nil, fmt.Errorf("corpus: merge segment logs %d runs but counts only %d",
			len(recs), snap.NumF+snap.NumS)
	}
	rest = rest[end:]
	var keys []uint64
	if version == mergeSegVersionKeyed {
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("corpus: merge segment key count: %v", io.ErrUnexpectedEOF)
		}
		if count != uint64(len(recs)) {
			return nil, nil, nil, fmt.Errorf("corpus: merge segment has %d keys for %d records", count, len(recs))
		}
		rest = rest[n:]
		keys = make([]uint64, count)
		for i := range keys {
			if keys[i], n = binary.Uvarint(rest); n <= 0 {
				return nil, nil, nil, fmt.Errorf("corpus: merge segment key %d: %v", i, io.ErrUnexpectedEOF)
			}
			rest = rest[n:]
		}
	}
	if len(rest) != 0 {
		return nil, nil, nil, fmt.Errorf("corpus: merge segment followed by %d trailing bytes", len(rest))
	}
	return snap, recs, keys, nil
}

// WriteCheckpointFileRecords persists a checkpoint — a collector's one
// state file: a snapshot (including its WAL watermark) and the retained
// run window it describes, as encoded run-log records with their
// routing-key hashes — as a single gzip-compressed merge segment (see
// WriteMergeSegmentRecords). One file cannot tear, so counters and
// window always restore together. The write is temp file + fsync +
// rename + directory fsync: a crash mid-write never clobbers the
// previous good file, and once this returns the new one survives power
// loss — the collector deletes fsynced WAL segments on the strength of
// that.
func WriteCheckpointFileRecords(path string, snap *AggSnapshot, numSites, numPreds int, recs [][]byte, keys []uint64) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = report.Gzip(tmp, func(w io.Writer) error {
		return WriteMergeSegmentRecords(w, snap, numSites, numPreds, recs, keys)
	})
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadCheckpointFile loads a checkpoint written by
// WriteCheckpointFileRecords: the whole file must be one merge segment,
// whose window comes back as canonical records (see
// parseMergeSegment). A missing file returns all nil values:
// cold start. A file that is not a gzip stream is refused with the
// importer command — it is most likely a pre-checkpoint plain-text
// snapshot, whose .runs sidecar only cbi merge still reads.
func ReadCheckpointFile(path string) (*AggSnapshot, [][]byte, []uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil, nil
	}
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()
	gz, err := report.Gunzip(bufio.NewReader(f))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: %s is not a checkpoint: %w (a legacy snapshot + .runs pair is converted by: cbi merge -o <new> %s)", path, err, path)
	}
	defer gz.Close()
	snap, recs, keys, err := ReadMergeSegmentKeyed(gz)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("corpus: checkpoint %s: %v", path, err)
	}
	return snap, recs, keys, nil
}

package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"cbi/internal/report"
)

// The write-ahead log makes the collector's acked-but-unsnapshotted
// loss window ~zero: every accepted batch (and merge, and revoke) is
// appended to the current WAL segment before the client is acked, and
// replayed on boot against the last checkpoint. Each checkpoint rotates
// to a fresh segment; closed segments are deleted once the checkpoint
// watermark covers them, so the log never grows past roughly one
// checkpoint interval of traffic.
//
// A segment is a text header followed by binary records:
//
//	cbi-wal 1 <numSites> <numPreds> <fingerprint>\n
//	<record>...
//
// and each record is
//
//	kind     1 byte: 'B' batch | 'M' merge | 'R' revoke |
//	         'K' keyed batch | 'E' migration evict | 'D' drain residual
//	seq      uvarint (strictly increasing across the whole log)
//	idLen    uvarint, then idLen bytes of batch id (may be empty)
//	payLen   uvarint, then payLen bytes of payload
//	crc      4 bytes little-endian CRC32-C over kind..payload
//
// Batch payloads are a uvarint report count followed by that many
// report.AppendRecord encodings. Merge payloads are exactly one
// WriteMergeSegmentRecords segment (the peer's counter snapshot + its
// run window); a byte after it fails the record like a torn one. Revoke
// payloads are a uvarint id count followed by length-prefixed batch
// ids. A torn tail — the partial record a crash mid-write leaves — is
// detected by the CRC (or by running out of bytes) and dropped; a
// corrupt header or record in the middle of a segment is a hard error.

// WAL record kinds. The 'K', 'E' and 'D' kinds were added for live
// migration; they are self-describing by their kind byte, so the
// segment header version is unchanged — a pre-migration reader fails
// loudly on an unknown kind instead of silently dropping state.
const (
	WALBatch  = 'B'
	WALMerge  = 'M'
	WALRevoke = 'R'
	// WALKeyedBatch is a batch stamped with its routing-key hash: the
	// payload is a uvarint key followed by a WALBatch payload. Written
	// instead of WALBatch whenever the key is known, so replayed runs
	// stay addressable by key range.
	WALKeyedBatch = 'K'
	// WALEvict records a migration handoff eviction: the payload is a
	// WALBatch payload listing the exact records removed from the run
	// log (and uncounted). Replay re-removes them, so handed-off runs
	// stay handed off across a source crash.
	WALEvict = 'E'
	// WALDrainResidual records the subtraction of beyond-window residual
	// counters during a full drain: the payload is a SaveAggSnapshot
	// text of the subtracted counters.
	WALDrainResidual = 'D'
)

const (
	walVersion = 1
	// maxWALBatchID bounds a record's batch-id length.
	maxWALBatchID = 1 << 10
	// maxWALPayload bounds a record payload; matches the collector's
	// maximum accepted batch body.
	maxWALPayload = 64 << 20
	// maxWALRevokeIDs bounds the ids one revoke record may carry.
	maxWALRevokeIDs = 1 << 16
)

// walCRCTable is the WAL record checksum polynomial: CRC32-C
// (Castagnoli) rather than IEEE, because amd64 and arm64 compute it in
// hardware and the checksum runs over every payload byte on the hot
// ingest path.
var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// WALRecord is one durable collector mutation.
type WALRecord struct {
	Kind byte
	Seq  uint64
	// BatchID is the client batch id ('B' and 'M' records), used to
	// re-seed retry dedup on replay. May be empty.
	BatchID string
	// Reports holds the runs of a batch or evict record ('B', 'K',
	// 'E'); it is written only when Recs is nil.
	Reports []*report.Report
	// Recs holds runs as canonical report.AppendRecord encodings — the
	// exact bytes the payload contains: the merged peer's run window
	// ('M', always), or a batch's runs, letting a caller that has the
	// encodings anyway (the collector uses them as run-log records) pay
	// for encoding once. A record read back carries Recs as spans of the
	// payload it was read from (re-encoded only where the payload was
	// not canonical), and a batch also its decoded Reports, aligned, so
	// replay encodes nothing.
	Recs [][]byte
	// Snap is the merged peer's counter snapshot ('M'), or the
	// subtracted residual counters ('D').
	Snap *AggSnapshot
	// IDs lists the batch ids reversed by a revoke ('R' only).
	IDs []string
	// Key is the routing-key hash of a keyed batch ('K' only).
	Key uint64
	// Keys, when non-nil on a 'M' record, carries the merged peer's
	// per-record routing-key hashes (aligned with Recs).
	Keys []uint64
}

// AppendWALRecord encodes rec and appends it to dst.
func AppendWALRecord(dst []byte, rec *WALRecord, numSites, numPreds int) ([]byte, error) {
	if len(rec.BatchID) > maxWALBatchID {
		return nil, fmt.Errorf("corpus: WAL batch id %d bytes long", len(rec.BatchID))
	}
	// preLen, when ≥ 0, is the payload length of the pre-encoded batch
	// fast path: the payload bytes are streamed straight into dst below
	// instead of being materialized (and copied) here — on the hot
	// ingest path the payload is the whole batch, so the extra ~batch
	// of garbage per append is worth avoiding.
	preLen := -1
	var payload []byte
	switch rec.Kind {
	case WALBatch, WALKeyedBatch, WALEvict:
		if rec.Kind == WALKeyedBatch {
			payload = binary.AppendUvarint(payload, rec.Key)
		}
		if rec.Recs != nil {
			preLen = len(payload) + uvarintLen(uint64(len(rec.Recs)))
			for _, r := range rec.Recs {
				preLen += len(r)
			}
		} else {
			payload = binary.AppendUvarint(payload, uint64(len(rec.Reports)))
			for _, r := range rec.Reports {
				payload = report.AppendRecord(payload, r)
			}
		}
	case WALMerge:
		if rec.Snap == nil {
			return nil, fmt.Errorf("corpus: WAL merge record without snapshot")
		}
		var buf bytes.Buffer
		if err := WriteMergeSegmentRecords(&buf, rec.Snap, rec.Snap.NumSites, rec.Snap.NumPreds, rec.Recs, rec.Keys); err != nil {
			return nil, err
		}
		payload = buf.Bytes()
	case WALDrainResidual:
		if rec.Snap == nil {
			return nil, fmt.Errorf("corpus: WAL drain-residual record without snapshot")
		}
		var buf bytes.Buffer
		if err := SaveAggSnapshot(&buf, rec.Snap); err != nil {
			return nil, err
		}
		payload = buf.Bytes()
	case WALRevoke:
		if len(rec.IDs) > maxWALRevokeIDs {
			return nil, fmt.Errorf("corpus: WAL revoke record with %d ids", len(rec.IDs))
		}
		payload = binary.AppendUvarint(payload, uint64(len(rec.IDs)))
		for _, id := range rec.IDs {
			if len(id) > maxWALBatchID {
				return nil, fmt.Errorf("corpus: WAL revoke id %d bytes long", len(id))
			}
			payload = binary.AppendUvarint(payload, uint64(len(id)))
			payload = append(payload, id...)
		}
	default:
		return nil, fmt.Errorf("corpus: unknown WAL record kind %q", rec.Kind)
	}
	plen := len(payload)
	if preLen >= 0 {
		plen = preLen
	}
	if plen > maxWALPayload {
		return nil, fmt.Errorf("corpus: WAL payload %d bytes exceeds cap", plen)
	}
	start := len(dst)
	dst = append(dst, rec.Kind)
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(rec.BatchID)))
	dst = append(dst, rec.BatchID...)
	dst = binary.AppendUvarint(dst, uint64(plen))
	if preLen >= 0 {
		// payload holds any prefix built before the pre-encoded records
		// (the routing key of a 'K' record); the records stream after it.
		dst = append(dst, payload...)
		dst = binary.AppendUvarint(dst, uint64(len(rec.Recs)))
		for _, r := range rec.Recs {
			dst = append(dst, r...)
		}
	} else {
		dst = append(dst, payload...)
	}
	crc := crc32.Checksum(dst[start:], walCRCTable)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return dst, nil
}

// uvarintLen returns the encoded size of v without encoding it.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// crcByteReader threads a CRC32 through every byte read so the record
// checksum can be verified without buffering the raw encoding.
type crcByteReader struct {
	br  *bufio.Reader
	crc uint32
}

func (c *crcByteReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err != nil {
		return 0, err
	}
	one := [1]byte{b}
	c.crc = crc32.Update(c.crc, walCRCTable, one[:])
	return b, nil
}

// full reads len(p) bytes through the CRC. It is only ever called
// mid-record, so a clean EOF here still means a torn record — map it
// to ErrUnexpectedEOF so replay never mistakes it for a record
// boundary.
func (c *crcByteReader) full(p []byte) error {
	if _, err := io.ReadFull(c.br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	c.crc = crc32.Update(c.crc, walCRCTable, p)
	return nil
}

// readUvarint reads a uvarint through the CRC, mapping EOF mid-value to
// ErrUnexpectedEOF (a torn record, not a clean boundary).
func (c *crcByteReader) readUvarint() (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return v, err
}

// readBounded reads n payload bytes in bounded chunks so a hostile
// length prefix cannot demand a huge up-front allocation.
func (c *crcByteReader) readBounded(n uint64) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for uint64(len(buf)) < n {
		k := min(n-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, k)...)
		if err := c.full(buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// ReadWALRecord reads and validates one record. io.EOF is returned only
// at a clean record boundary; a record cut off mid-way surfaces as
// io.ErrUnexpectedEOF, and any corruption (bad CRC, bad structure,
// dimension mismatch) as a descriptive error. Replay treats anything
// but a clean EOF as a torn tail.
func ReadWALRecord(br *bufio.Reader, numSites, numPreds int) (*WALRecord, error) {
	c := &crcByteReader{br: br}
	kind, err := c.ReadByte()
	if err != nil {
		return nil, err // io.EOF here is a clean end of log
	}
	switch kind {
	case WALBatch, WALMerge, WALRevoke, WALKeyedBatch, WALEvict, WALDrainResidual:
	default:
		return nil, fmt.Errorf("corpus: unknown WAL record kind 0x%02x", kind)
	}
	seq, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	idLen, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	if idLen > maxWALBatchID {
		return nil, fmt.Errorf("corpus: WAL batch id %d bytes long", idLen)
	}
	id := make([]byte, idLen)
	if err := c.full(id); err != nil {
		return nil, err
	}
	payLen, err := c.readUvarint()
	if err != nil {
		return nil, err
	}
	if payLen > maxWALPayload {
		return nil, fmt.Errorf("corpus: WAL payload %d bytes exceeds cap", payLen)
	}
	payload, err := c.readBounded(payLen)
	if err != nil {
		return nil, err
	}
	sum := c.crc
	var crcBuf [4]byte
	if _, err := io.ReadFull(br, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("corpus: WAL record checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != sum {
		return nil, fmt.Errorf("corpus: WAL record CRC mismatch (stored %08x, computed %08x)", got, sum)
	}
	rec := &WALRecord{Kind: kind, Seq: seq, BatchID: string(id)}
	switch kind {
	case WALBatch, WALKeyedBatch, WALEvict:
		pr := bytes.NewReader(payload)
		if kind == WALKeyedBatch {
			key, err := binary.ReadUvarint(pr)
			if err != nil {
				return nil, fmt.Errorf("corpus: WAL keyed batch key: %v", err)
			}
			rec.Key = key
		}
		count, err := binary.ReadUvarint(pr)
		if err != nil {
			return nil, fmt.Errorf("corpus: WAL batch count: %v", err)
		}
		// Every record costs at least 3 bytes (flags + two lengths).
		if count > uint64(len(payload)) {
			return nil, fmt.Errorf("corpus: WAL batch claims %d reports in %d bytes", count, len(payload))
		}
		rest := payload[len(payload)-pr.Len():]
		rec.Reports = make([]*report.Report, 0, count)
		rec.Recs = make([][]byte, 0, count)
		for i := uint64(0); i < count; i++ {
			r, walked, err := report.DecodeRecord(rest, numSites, numPreds)
			if err != nil {
				return nil, fmt.Errorf("corpus: WAL batch report %d: %v", i, err)
			}
			rec.Reports = append(rec.Reports, r)
			rec.Recs = append(rec.Recs, report.CanonicalRecord(rest, walked, r))
			rest = rest[walked.Len:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("corpus: WAL batch has %d trailing bytes", len(rest))
		}
	case WALMerge:
		snap, recs, keys, err := parseMergeSegment(payload)
		if err != nil {
			return nil, fmt.Errorf("corpus: WAL merge payload: %v", err)
		}
		if snap.NumSites != numSites || snap.NumPreds != numPreds {
			return nil, fmt.Errorf("corpus: WAL merge dimensions %dx%d, log is %dx%d",
				snap.NumSites, snap.NumPreds, numSites, numPreds)
		}
		rec.Snap = snap
		rec.Recs = recs
		rec.Keys = keys
	case WALDrainResidual:
		snap, err := LoadAggSnapshot(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("corpus: WAL drain-residual payload: %v", err)
		}
		if snap.NumSites != numSites || snap.NumPreds != numPreds {
			return nil, fmt.Errorf("corpus: WAL drain-residual dimensions %dx%d, log is %dx%d",
				snap.NumSites, snap.NumPreds, numSites, numPreds)
		}
		rec.Snap = snap
	case WALRevoke:
		pr := bytes.NewReader(payload)
		count, err := binary.ReadUvarint(pr)
		if err != nil {
			return nil, fmt.Errorf("corpus: WAL revoke count: %v", err)
		}
		if count > maxWALRevokeIDs || count > uint64(len(payload)) {
			return nil, fmt.Errorf("corpus: WAL revoke claims %d ids in %d bytes", count, len(payload))
		}
		rec.IDs = make([]string, 0, count)
		for i := uint64(0); i < count; i++ {
			n, err := binary.ReadUvarint(pr)
			if err != nil || n > maxWALBatchID || n > uint64(pr.Len()) {
				return nil, fmt.Errorf("corpus: WAL revoke id %d length", i)
			}
			buf := make([]byte, n)
			io.ReadFull(pr, buf)
			rec.IDs = append(rec.IDs, string(buf))
		}
		if pr.Len() != 0 {
			return nil, fmt.Errorf("corpus: WAL revoke has %d trailing bytes", pr.Len())
		}
	}
	return rec, nil
}

func walHeader(numSites, numPreds int, fingerprint uint64) string {
	return fmt.Sprintf("cbi-wal %d %d %d %d\n", walVersion, numSites, numPreds, fingerprint)
}

// WALReplay is the result of scanning one WAL segment.
type WALReplay struct {
	// Records are the intact records, in log order.
	Records []*WALRecord
	// ValidBytes is the offset just past the last intact record (or the
	// header, or zero when even the header is torn). Reopening the
	// segment for append truncates to this offset first.
	ValidBytes int64
	// Torn reports that the segment ended in a partial or corrupt
	// record (or a torn header) that was dropped.
	Torn bool
	// MaxSeq is the highest record sequence seen (0 when empty).
	MaxSeq uint64
}

// countingReader tracks how many bytes the wrapped reader has consumed,
// so replay can compute the valid prefix as consumed - buffered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReplayWALFile scans one WAL segment, validating the header against
// the collector's dimensions and plan fingerprint and stopping at the
// first torn or corrupt record. A missing file returns (nil, nil). A
// header that parses but disagrees with the collector — or a segment
// that is not a WAL at all — is a hard error: replaying it would
// corrupt state, so the operator must intervene (see OPERATIONS.md,
// "replay failed on boot").
func ReplayWALFile(path string, numSites, numPreds int, fingerprint uint64) (*WALReplay, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 1<<16)
	rep := &WALReplay{}
	header, err := br.ReadString('\n')
	if err != nil {
		// No complete header line: a crash tore the very first write.
		rep.Torn = len(header) > 0
		return rep, nil
	}
	var version, gotSites, gotPreds int
	var gotFP uint64
	if _, err := fmt.Sscanf(header, "cbi-wal %d %d %d %d", &version, &gotSites, &gotPreds, &gotFP); err != nil {
		return nil, fmt.Errorf("corpus: %s is not a WAL segment (header %q)", path, strings.TrimSpace(header))
	}
	if version != walVersion {
		return nil, fmt.Errorf("corpus: WAL segment %s has unsupported version %d", path, version)
	}
	if gotSites != numSites || gotPreds != numPreds {
		return nil, fmt.Errorf("corpus: WAL segment %s is %dx%d, collector is %dx%d",
			path, gotSites, gotPreds, numSites, numPreds)
	}
	if gotFP != 0 && fingerprint != 0 && gotFP != fingerprint {
		return nil, fmt.Errorf("corpus: WAL segment %s has plan fingerprint %d, collector has %d",
			path, gotFP, fingerprint)
	}
	rep.ValidBytes = cr.n - int64(br.Buffered())
	for {
		rec, err := ReadWALRecord(br, numSites, numPreds)
		if err == io.EOF {
			return rep, nil
		}
		if err != nil {
			rep.Torn = true
			return rep, nil
		}
		if rec.Seq <= rep.MaxSeq {
			// Sequences are strictly increasing; a regression means the
			// tail is garbage that happened to checksum (or a doctored
			// file). Treat as torn from here.
			rep.Torn = true
			return rep, nil
		}
		rep.Records = append(rep.Records, rec)
		rep.MaxSeq = rec.Seq
		rep.ValidBytes = cr.n - int64(br.Buffered())
	}
}

// WAL is one segment file open for appending.
type WAL struct {
	f    *os.File
	path string
	hdr  int64
	size int64
	buf  []byte
}

// CreateWALSegment creates (or truncates) a fresh segment at path and
// writes its header.
func CreateWALSegment(path string, numSites, numPreds int, fingerprint uint64) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	h := walHeader(numSites, numPreds, fingerprint)
	if _, err := f.WriteString(h); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, path: path, hdr: int64(len(h)), size: int64(len(h))}, nil
}

// OpenWALSegment reopens an existing segment for appending, truncating
// it to validBytes first (dropping a torn tail found by ReplayWALFile).
// validBytes of zero or less than a header rewrites the segment fresh.
func OpenWALSegment(path string, numSites, numPreds int, fingerprint uint64, validBytes int64) (*WAL, error) {
	h := walHeader(numSites, numPreds, fingerprint)
	if validBytes < int64(len(h)) {
		return CreateWALSegment(path, numSites, numPreds, fingerprint)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(validBytes, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &WAL{f: f, path: path, hdr: int64(len(h)), size: validBytes}, nil
}

// Append encodes rec and writes it to the segment. The bytes are handed
// to the OS before returning (surviving a process crash, the threat
// model here); fsync is deliberately not issued per record.
func (w *WAL) Append(rec *WALRecord, numSites, numPreds int) error {
	buf, err := AppendWALRecord(w.buf[:0], rec, numSites, numPreds)
	if err != nil {
		return err
	}
	w.buf = buf[:0]
	n, err := w.f.Write(buf)
	w.size += int64(n)
	return err
}

// Truncate discards all records, resetting the segment to its header.
func (w *WAL) Truncate() error { return w.TruncateTo(w.hdr) }

// TruncateTo drops everything past size (floored at the header) — the
// repair path after a failed append left a partial record on disk.
func (w *WAL) TruncateTo(size int64) error {
	if size < w.hdr {
		size = w.hdr
	}
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		return err
	}
	w.size = size
	return nil
}

// Size returns the segment's current byte length.
func (w *WAL) Size() int64 { return w.size }

// Path returns the segment's file path.
func (w *WAL) Path() string { return w.path }

// Empty reports whether the segment holds no records.
func (w *WAL) Empty() bool { return w.size <= w.hdr }

// Sync flushes the segment to stable storage.
func (w *WAL) Sync() error { return w.f.Sync() }

// Close closes the segment file.
func (w *WAL) Close() error { return w.f.Close() }

// walSegmentPattern formats segment file names: <base>.NNNNNNNN.
func walSegmentName(base string, index uint64) string {
	return fmt.Sprintf("%s.%08d", base, index)
}

// WALSegmentRef names one existing segment of a segmented log.
type WALSegmentRef struct {
	Path  string
	Index uint64
}

// ListWALSegments finds the existing segments of the log based at base,
// sorted by index.
func ListWALSegments(base string) ([]WALSegmentRef, error) {
	matches, err := filepath.Glob(base + ".*")
	if err != nil {
		return nil, err
	}
	var segs []WALSegmentRef
	for _, m := range matches {
		suffix := m[len(base)+1:]
		if len(suffix) < 8 {
			continue
		}
		idx, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, WALSegmentRef{Path: m, Index: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, nil
}

// WALSegmentName exposes the segment naming scheme for the collector.
func WALSegmentName(base string, index uint64) string { return walSegmentName(base, index) }

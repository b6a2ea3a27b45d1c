// Binary wire codec for feedback reports — the compact format clients
// use to ship batches to a collector (and a denser at-rest alternative
// to the text codec).
//
// Layout (all integers are unsigned LEB128 varints):
//
//	magic   "CBR1" (4 bytes)
//	header  numSites numPreds numReports
//	record  flags(1 byte: bit0 = failed)
//	        len(sites)  sites delta-encoded (first absolute, then gaps)
//	        len(preds)  preds delta-encoded
//
// Site and predicate lists are strictly ascending, so every gap after
// the first element is at least 1; delta encoding keeps typical entries
// to one or two bytes even in large predicate spaces. The decoder
// validates monotonicity and range, and never panics or over-allocates
// on malformed input (fuzz-verified by FuzzReportRoundTripBinary).
//
// The per-report record encoding is exposed on its own as
// AppendRecord/ReadRecord: the collector's run-level membership log
// stores each retained run as exactly one such record (fuzz-verified by
// FuzzRunLogRoundTrip), so the wire format and the run log cannot
// drift apart.
package report

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// binaryMagic identifies the binary report format, version 1.
const binaryMagic = "CBR1"

// maxDim bounds the site/predicate index spaces so ids fit in int32 and
// a hostile header cannot demand absurd allocations.
const maxDim = 1 << 30

// Preallocation caps for length headers. A hostile header can claim up
// to maxDim entries before a single payload byte arrives, so initial
// make() sizes are clamped well below what the claim alone would
// justify: 4096 report pointers (32 KiB) and 4096 ids (16 KiB).
// Legitimate batches larger than the cap still decode in amortized
// linear time — append grows geometrically, so re-growth past the hint
// costs O(n) total, never quadratic.
const (
	maxReportPrealloc = 1 << 12
	maxListPrealloc   = 1 << 12
)

// MarshalBinary writes the set in the compact binary wire format.
func (s *Set) MarshalBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	putUvarint(uint64(s.NumSites))
	putUvarint(uint64(s.NumPreds))
	putUvarint(uint64(len(s.Reports)))
	var rec []byte
	for _, r := range s.Reports {
		rec = AppendRecord(rec[:0], r)
		bw.Write(rec)
	}
	return bw.Flush()
}

// AppendRecord appends the binary record encoding of one report to dst
// and returns the extended slice: a flags byte (bit0 = failed) followed
// by the delta/varint-encoded ObservedSites and TruePreds lists. This
// is exactly the per-report layout of MarshalBinary.
func AppendRecord(dst []byte, r *Report) []byte {
	var flags byte
	if r.Failed {
		flags |= 1
	}
	// Grow once to the worst case (5 varint bytes per id) and write by
	// index: this encoder is the per-report ingest hot path, and the
	// per-varint append-through-a-scratch-buffer it replaced was the
	// single biggest CPU sink in the fold.
	need := 1 + 2*binary.MaxVarintLen64 +
		binary.MaxVarintLen32*(len(r.ObservedSites)+len(r.TruePreds))
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[:cap(dst)]
	n := len(dst)
	buf[n] = flags
	n++
	for _, list := range [2][]int32{r.ObservedSites, r.TruePreds} {
		n += binary.PutUvarint(buf[n:], uint64(len(list)))
		prev := int32(0)
		for _, v := range list {
			d := uint64(uint32(v - prev))
			prev = v
			// Ascending ids make most deltas tiny; the one-byte case
			// skips PutUvarint's loop entirely.
			if d < 0x80 {
				buf[n] = byte(d)
				n++
			} else {
				n += binary.PutUvarint(buf[n:], d)
			}
		}
	}
	return buf[:n]
}

// ReadRecord decodes one record written by AppendRecord, validating the
// same invariants as UnmarshalBinary: known flags, strictly ascending
// id lists, every id inside [0, numSites) / [0, numPreds). It is safe
// on arbitrary input — it returns an error rather than panicking, and
// allocation is bounded by the input size (fuzz-verified by
// FuzzRunLogRoundTrip).
func ReadRecord(br io.ByteReader, numSites, numPreds int) (*Report, error) {
	flags, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("report: record flags: %v", err)
	}
	if flags > 1 {
		return nil, fmt.Errorf("report: record: unknown flags %#x", flags)
	}
	rep := &Report{Failed: flags&1 != 0}
	if rep.ObservedSites, err = readDeltaList(br, numSites); err != nil {
		return nil, fmt.Errorf("report: record sites: %v", err)
	}
	if rep.TruePreds, err = readDeltaList(br, numPreds); err != nil {
		return nil, fmt.Errorf("report: record preds: %v", err)
	}
	return rep, nil
}

// UnmarshalBinary parses a set written by MarshalBinary. It is safe on
// arbitrary (malformed, truncated, hostile) input: it returns an error
// rather than panicking, and allocation is bounded by the input size.
func UnmarshalBinary(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("report: binary magic: %v", err)
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("report: bad binary magic %q, want %q", magic[:], binaryMagic)
	}
	numSites, err := readDim(br, "numSites")
	if err != nil {
		return nil, err
	}
	numPreds, err := readDim(br, "numPreds")
	if err != nil {
		return nil, err
	}
	numReports, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("report: binary numReports: %v", err)
	}
	// Each report needs at least 3 bytes on the wire; cap the
	// preallocation so a lying header cannot force OOM or even a
	// noticeable over-allocation before the body disproves the claim.
	// Compared as uint64: a count past MaxInt64 converts to a negative
	// int, which would slip under the cap and panic make.
	capHint := maxReportPrealloc
	if numReports < maxReportPrealloc {
		capHint = int(numReports)
	}
	set := &Set{NumSites: numSites, NumPreds: numPreds,
		Reports: make([]*Report, 0, capHint)}
	for i := uint64(0); i < numReports; i++ {
		rep, err := ReadRecord(br, numSites, numPreds)
		if err != nil {
			return nil, fmt.Errorf("report: binary report %d: %v", i, err)
		}
		set.Reports = append(set.Reports, rep)
	}
	return set, nil
}

func readDim(br *bufio.Reader, what string) (int, error) {
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("report: binary %s: %v", what, err)
	}
	if v > maxDim {
		return 0, fmt.Errorf("report: binary %s %d exceeds limit", what, v)
	}
	return int(v), nil
}

// readDeltaList decodes a strictly ascending id list with ids in
// [0, dim). The length is implicitly bounded by dim: an ascending list
// cannot hold more distinct values than the index space.
func readDeltaList(br io.ByteReader, dim int) ([]int32, error) {
	n, err := readListLen(br, dim)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	// Preallocate conservatively: every entry costs at least one wire
	// byte, so a lying length (up to dim = 2^30) must not be able to
	// force a large allocation before any list bytes are read.
	capHint := n
	if capHint > maxListPrealloc {
		capHint = maxListPrealloc
	}
	return appendDeltaList(br, dim, n, make([]int32, 0, capHint))
}

// readListLen reads a list length header and validates it against dim.
func readListLen(br io.ByteReader, dim int) (int, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, err
	}
	if n > uint64(dim) {
		return 0, fmt.Errorf("list length %d exceeds dimension %d", n, dim)
	}
	return int(n), nil
}

// appendDeltaList decodes n delta-encoded entries onto dst, validating
// ascending order and range. Allocation tracks bytes actually read —
// append growth, never the claimed length — so the arena decoder can
// feed it a shared id slab.
func appendDeltaList(br io.ByteReader, dim, n int, dst []int32) ([]int32, error) {
	prev := int64(-1)
	for i := 0; i < n; i++ {
		d, err := binary.ReadUvarint(br)
		if err != nil {
			return dst, err
		}
		if d > uint64(dim) {
			return dst, fmt.Errorf("id delta %d out of range [0,%d)", d, dim)
		}
		var v int64
		if prev < 0 {
			v = int64(d)
		} else {
			if d == 0 {
				return dst, fmt.Errorf("non-ascending entry at index %d", i)
			}
			v = prev + int64(d)
		}
		if v >= int64(dim) {
			return dst, fmt.Errorf("id %d out of range [0,%d)", v, dim)
		}
		dst = append(dst, int32(v))
		prev = v
	}
	return dst, nil
}

// EncodeRecords returns each report's canonical record (its
// AppendRecord bytes), index-aligned with reports — the form the WAL,
// the run log and the records-direct segment writers all share, so one
// encoding pass serves every consumer.
func EncodeRecords(reports []*Report) [][]byte {
	recs := make([][]byte, len(reports))
	// AppendRecord sizes a fresh buffer for the worst case (five bytes
	// per id); encoding through one scratch and keeping exact-size
	// copies allocates a fifth of that.
	var scratch []byte
	for i, r := range reports {
		scratch = AppendRecord(scratch[:0], r)
		recs[i] = bytes.Clone(scratch)
	}
	return recs
}

// MarshalRecords writes the binary wire format directly from
// pre-encoded per-report records (canonical AppendRecord encodings,
// e.g. the collector run log's retained bytes). The output is
// byte-identical to MarshalBinary over the decoded reports — pinned by
// TestRecordMatchesSetEncoding — which lets snapshot/export paths skip
// a decode → re-encode round trip.
func MarshalRecords(w io.Writer, numSites, numPreds int, recs [][]byte) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		bw.Write(tmp[:n])
	}
	putUvarint(uint64(numSites))
	putUvarint(uint64(numPreds))
	putUvarint(uint64(len(recs)))
	for _, rec := range recs {
		bw.Write(rec)
	}
	return bw.Flush()
}

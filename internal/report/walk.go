// The slice walker: the one binary decoder. It reads varints by index
// over a []byte cursor and validates known flags, list lengths within
// the dimension and strictly ascending in-range ids. Beyond the ids it
// reports where each record ends and whether its bytes are canonical
// (byte-identical to AppendRecord over the decoded report), so callers
// that retain records can copy the wire span instead of re-encoding,
// and where a whole set ends, so callers can require that nothing
// follows it. The fuzz targets pin it to a naive stream decoder kept in
// fuzz_test.go as the reference.
package report

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// walker is a cursor over buf. overlong is sticky: it records that some
// varint read since it was last cleared was not minimally encoded.
type walker struct {
	buf      []byte
	off      int
	overlong bool
}

// uvarint reads one varint, with the error cases of binary.ReadUvarint:
// io.EOF at the end of the buffer, io.ErrUnexpectedEOF inside a varint.
func (w *walker) uvarint() (uint64, error) {
	if w.off < len(w.buf) {
		if b := w.buf[w.off]; b < 0x80 {
			w.off++
			return uint64(b), nil
		}
	}
	v, n := binary.Uvarint(w.buf[w.off:])
	switch {
	case n > 0:
		w.off += n
		// A multi-byte varint ending in a zero byte carries no bits in
		// its last group: a shorter encoding exists.
		if w.buf[w.off-1] == 0 {
			w.overlong = true
		}
		return v, nil
	case n < 0:
		return 0, errVarintOverflow
	case w.off == len(w.buf):
		return 0, io.EOF
	default:
		return 0, io.ErrUnexpectedEOF
	}
}

// dim reads one of the set header's dimensions.
func (w *walker) dim(what string) (int, error) {
	v, err := w.uvarint()
	if err != nil {
		return 0, fmt.Errorf("report: binary %s: %v", what, err)
	}
	if v > maxDim {
		return 0, fmt.Errorf("report: binary %s %d exceeds limit", what, v)
	}
	return int(v), nil
}

// listLen reads a list length header and validates it against dim and
// against the bytes left — every id costs at least one byte, so the
// length bounds what a caller may allocate up front.
func (w *walker) listLen(dim int) (int, error) {
	n, err := w.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(dim) {
		return 0, fmt.Errorf("list length %d exceeds dimension %d", n, dim)
	}
	if n > uint64(len(w.buf)-w.off) {
		return 0, io.ErrUnexpectedEOF
	}
	return int(n), nil
}

// appendIDs decodes n delta-encoded ids onto dst, validating ascending
// order and range.
func (w *walker) appendIDs(dst []int32, n, dim int) ([]int32, error) {
	prev := int64(-1)
	for i := 0; i < n; i++ {
		var d uint64
		// Ascending ids make most deltas one byte; skip the call.
		if w.off < len(w.buf) && w.buf[w.off] < 0x80 {
			d = uint64(w.buf[w.off])
			w.off++
		} else {
			var err error
			if d, err = w.uvarint(); err != nil {
				return dst, err
			}
		}
		if d > uint64(dim) {
			return dst, fmt.Errorf("id delta %d out of range [0,%d)", d, dim)
		}
		v := int64(d)
		if prev >= 0 {
			if d == 0 {
				return dst, fmt.Errorf("non-ascending entry at index %d", i)
			}
			v += prev
		}
		if v >= int64(dim) {
			return dst, fmt.Errorf("id %d out of range [0,%d)", v, dim)
		}
		dst = append(dst, int32(v))
		prev = v
	}
	return dst, nil
}

// flags reads a record's flags byte and starts tracking whether the
// record's varints are canonical.
func (w *walker) flags() (failed bool, err error) {
	w.overlong = false
	if w.off == len(w.buf) {
		return false, fmt.Errorf("report: record flags: %v", io.EOF)
	}
	flags := w.buf[w.off]
	w.off++
	if flags > 1 {
		return false, fmt.Errorf("report: record: unknown flags %#x", flags)
	}
	return flags&1 != 0, nil
}

// list reads one length-prefixed id list onto ids; what names it in
// errors. A nil ids is allocated at exactly the list's length.
func (w *walker) list(ids []int32, dim int, what string) ([]int32, error) {
	n, err := w.listLen(dim)
	if err == nil {
		if ids == nil && n > 0 {
			ids = make([]int32, 0, n)
		}
		ids, err = w.appendIDs(ids, n, dim)
	}
	if err != nil {
		return ids, fmt.Errorf("report: record %s: %v", what, err)
	}
	return ids, nil
}

// AppendRecordIDs validates the record at the front of rec and appends
// its site ids, then its predicate ids, to ids; sites is how many site
// ids it appended. It allocates only through append on ids, so a caller
// walking many records into one reused slab allocates nothing per
// record.
func AppendRecordIDs(ids []int32, rec []byte, numSites, numPreds int) (out []int32, sites int, failed bool, err error) {
	w := walker{buf: rec}
	if failed, err = w.flags(); err != nil {
		return ids, 0, false, err
	}
	base := len(ids)
	if ids, err = w.list(ids, numSites, "sites"); err != nil {
		return ids, 0, false, err
	}
	sites = len(ids) - base
	if ids, err = w.list(ids, numPreds, "preds"); err != nil {
		return ids, 0, false, err
	}
	return ids, sites, failed, nil
}

// Walked describes how a decoded record sat in its buffer.
type Walked struct {
	// Len is the record's encoded length: it occupied buf[:Len].
	Len int
	// Canonical reports that buf[:Len] is byte-identical to
	// AppendRecord over the decoded report. Only an overlong varint
	// makes an accepted record non-canonical.
	Canonical bool
}

// DecodeRecord decodes the record at the front of buf into a freshly
// allocated Report whose id lists are sized exactly, and says how the
// record sat in buf.
func DecodeRecord(buf []byte, numSites, numPreds int) (*Report, Walked, error) {
	w := walker{buf: buf}
	failed, err := w.flags()
	if err != nil {
		return nil, Walked{}, err
	}
	rep := &Report{Failed: failed}
	if rep.ObservedSites, err = w.list(nil, numSites, "sites"); err != nil {
		return nil, Walked{}, err
	}
	if rep.TruePreds, err = w.list(nil, numPreds, "preds"); err != nil {
		return nil, Walked{}, err
	}
	return rep, Walked{Len: w.off, Canonical: !w.overlong}, nil
}

// CanonicalRecord returns the canonical encoding of the report r that
// was decoded from the front of wire: the wire bytes themselves when
// they are canonical, a fresh AppendRecord encoding otherwise — so
// bytes the run log interns never depend on how a sender padded its
// varints.
func CanonicalRecord(wire []byte, rec Walked, r *Report) []byte {
	if rec.Canonical {
		return wire[:rec.Len:rec.Len]
	}
	return AppendRecord(nil, r)
}

// recSpan records one walked record's extents: its ids inside the
// walk's slab (sites occupy ids[s0:s1], preds ids[s1:p1]) and its bytes
// inside the walked buffer (buf[b0:b1], canonical or not — see Walked).
type recSpan struct {
	s0, s1, p1        int
	b0, b1            int
	failed, canonical bool
}

// setWalk is one walked binary set: its dimensions, every record's ids
// in one slab plus its extents, and the offset in the buffer where the
// set ended. A reused setWalk reuses its slabs.
type setWalk struct {
	numSites, numPreds int
	// dropIDs discards each record's ids once they are validated, for a
	// caller that keeps only the spans: the slab then never outgrows one
	// record, and report must not be called.
	dropIDs bool
	ids     []int32
	spans   []recSpan
	end     int
}

// walk validates the binary set at the front of buf — magic, header and
// every record. Bytes past sw.end are the caller's to interpret or
// refuse.
func (sw *setWalk) walk(buf []byte) error {
	w := walker{buf: buf}
	if len(buf) < len(binaryMagic) {
		err := io.ErrUnexpectedEOF
		if len(buf) == 0 {
			err = io.EOF
		}
		return fmt.Errorf("report: binary magic: %v", err)
	}
	if string(buf[:len(binaryMagic)]) != binaryMagic {
		return fmt.Errorf("report: bad binary magic %q, want %q", buf[:len(binaryMagic)], binaryMagic)
	}
	w.off = len(binaryMagic)
	var err error
	if sw.numSites, err = w.dim("numSites"); err != nil {
		return err
	}
	if sw.numPreds, err = w.dim("numPreds"); err != nil {
		return err
	}
	numReports, err := w.uvarint()
	if err != nil {
		return fmt.Errorf("report: binary numReports: %v", err)
	}
	// A record is at least three bytes, so a count the buffer cannot
	// hold is rejected before it sizes anything.
	if numReports > uint64(len(buf)-w.off)/3 {
		return fmt.Errorf("report: binary numReports %d exceeds the %d-byte body", numReports, len(buf))
	}
	sw.ids, sw.spans = sw.ids[:0], sw.spans[:0]
	for i := uint64(0); i < numReports; i++ {
		sp := recSpan{s0: len(sw.ids), b0: w.off}
		sp.failed, err = w.flags()
		if err == nil {
			sw.ids, err = w.list(sw.ids, sw.numSites, "sites")
			sp.s1 = len(sw.ids)
		}
		if err == nil {
			sw.ids, err = w.list(sw.ids, sw.numPreds, "preds")
		}
		if err != nil {
			return fmt.Errorf("report: binary report %d: %v", i, err)
		}
		sp.p1, sp.b1, sp.canonical = len(sw.ids), w.off, !w.overlong
		sw.spans = append(sw.spans, sp)
		if sw.dropIDs {
			sw.ids = sw.ids[:0]
		}
	}
	sw.end = w.off
	return nil
}

// report returns walked record i as a Report whose id lists alias the
// slab. Full-capacity slice expressions keep a report from appending
// into its neighbour's ids.
func (sw *setWalk) report(i int) Report {
	sp := sw.spans[i]
	r := Report{Failed: sp.failed}
	if sp.s1 > sp.s0 {
		r.ObservedSites = sw.ids[sp.s0:sp.s1:sp.s1]
	}
	if sp.p1 > sp.s1 {
		r.TruePreds = sw.ids[sp.s1:sp.p1:sp.p1]
	}
	return r
}

// record returns walked record i's canonical bytes: its span of buf
// (the buffer walked) when the sender's bytes are canonical, a fresh
// AppendRecord encoding otherwise.
func (sw *setWalk) record(buf []byte, i int) []byte {
	sp := sw.spans[i]
	if sp.canonical {
		return buf[sp.b0:sp.b1:sp.b1]
	}
	// The walk accepted these bytes, so they decode again.
	r, _, _ := DecodeRecord(buf[sp.b0:sp.b1], sw.numSites, sw.numPreds)
	return AppendRecord(nil, r)
}

// SetRecords walks the binary set at the front of buf and returns its
// dimensions, each record's canonical bytes (spans of buf where the
// sender's bytes are canonical, so a holder that retains one must copy
// it) and the offset where the set ends.
func SetRecords(buf []byte) (numSites, numPreds int, recs [][]byte, end int, err error) {
	sw := setWalk{dropIDs: true}
	if err := sw.walk(buf); err != nil {
		return 0, 0, nil, 0, err
	}
	recs = make([][]byte, len(sw.spans))
	for i := range recs {
		recs[i] = sw.record(buf, i)
	}
	return sw.numSites, sw.numPreds, recs, sw.end, nil
}

// DecodeRecords decodes canonical records into reports, in order — for
// the consumers that need ids as slices: core.Input and the gateway's
// warm window.
func DecodeRecords(recs [][]byte, numSites, numPreds int) ([]*Report, error) {
	out := make([]*Report, 0, len(recs))
	for i, rec := range recs {
		r, _, err := DecodeRecord(rec, numSites, numPreds)
		if err != nil {
			return nil, fmt.Errorf("report: record %d: %v", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

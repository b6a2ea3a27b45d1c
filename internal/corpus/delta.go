package corpus

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"cbi/internal/report"
)

// Delta segments are the incremental form of GET /v1/snapshot: instead
// of re-shipping a shard's entire state, the collector replays the
// exact state mutations ("events") between two of its state versions,
// and a warm gateway view applies them to its cached copy. Versions
// are scoped by a per-boot epoch so a restarted shard (whose version
// counter restarts) can never be mistaken for the old one.
//
// A segment is a text header followed by binary events:
//
//	cbi-delta 1 <numSites> <numPreds> <fingerprint> <epoch> <from> <to> <numEvents>\n
//	<event>...
//
// and each event is a kind byte plus an optional length-prefixed body:
//
//	'A'  append a counted run:   uvarint len + report record
//	'J'  append an uncounted run (merge-joined): uvarint len + record
//	'E'  evict the oldest retained run (and uncount it): no body
//	'M'  fold merged counters:   uvarint len + SaveAggSnapshot text
//
// Applying the events of [from, to) to a copy of the shard's state at
// version `from` yields bit-for-bit the shard's state at version `to`.

// Delta event kinds.
const (
	DeltaAppend = 'A'
	DeltaJoin   = 'J'
	DeltaEvict  = 'E'
	DeltaMerge  = 'M'
)

const (
	deltaSegVersion = 1
	// maxDeltaEvents bounds a hostile header's event count.
	maxDeltaEvents = 1 << 22
	// maxDeltaEventBytes bounds one event body ('M' bodies are snapshot
	// text, separately bounded by maxMergeSnapBytes).
	maxDeltaEventBytes = 1 << 26
)

// DeltaEvent is one state mutation. Data is the raw body as stored by
// the collector; Report/Snap are the decoded forms ReadDeltaSegment
// fills for the consumer.
type DeltaEvent struct {
	Kind   byte
	Data   []byte
	Report *report.Report
	Snap   *AggSnapshot
}

// DeltaSegment is a decoded delta stream: the events that advance a
// shard's state from version From to version To within one Epoch.
type DeltaSegment struct {
	NumSites    int
	NumPreds    int
	Fingerprint uint64
	Epoch       uint64
	From, To    uint64
	Events      []DeltaEvent
}

// WriteDeltaSegment writes the segment; events need only Kind and Data.
func WriteDeltaSegment(w io.Writer, seg *DeltaSegment) error {
	if seg.To < seg.From || seg.To-seg.From != uint64(len(seg.Events)) {
		return fmt.Errorf("corpus: delta segment [%d,%d) carries %d events",
			seg.From, seg.To, len(seg.Events))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "cbi-delta %d %d %d %d %d %d %d %d\n",
		deltaSegVersion, seg.NumSites, seg.NumPreds, seg.Fingerprint,
		seg.Epoch, seg.From, seg.To, len(seg.Events))
	var lenBuf [binary.MaxVarintLen64]byte
	for _, ev := range seg.Events {
		bw.WriteByte(ev.Kind)
		if ev.Kind == DeltaEvict {
			continue
		}
		n := binary.PutUvarint(lenBuf[:], uint64(len(ev.Data)))
		bw.Write(lenBuf[:n])
		bw.Write(ev.Data)
	}
	return bw.Flush()
}

// ReadDeltaSegment parses and validates a delta stream, decoding each
// event body ('A'/'J' into Report, 'M' into Snap). It is safe on
// hostile input: every length is bounded and every body must decode
// against the header's dimensions.
func ReadDeltaSegment(r io.Reader) (*DeltaSegment, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("corpus: delta segment header: %v", err)
	}
	var version, numEvents int
	seg := &DeltaSegment{}
	if _, err := fmt.Sscanf(line, "cbi-delta %d %d %d %d %d %d %d %d",
		&version, &seg.NumSites, &seg.NumPreds, &seg.Fingerprint,
		&seg.Epoch, &seg.From, &seg.To, &numEvents); err != nil {
		return nil, fmt.Errorf("corpus: bad delta segment header %q: %v", strings.TrimSpace(line), err)
	}
	if version != deltaSegVersion {
		return nil, fmt.Errorf("corpus: unsupported delta segment version %d", version)
	}
	if seg.NumSites < 0 || seg.NumPreds < 0 {
		return nil, fmt.Errorf("corpus: negative delta segment dimensions")
	}
	if numEvents < 0 || numEvents > maxDeltaEvents {
		return nil, fmt.Errorf("corpus: delta segment event count %d out of range", numEvents)
	}
	if seg.To < seg.From || seg.To-seg.From != uint64(numEvents) {
		return nil, fmt.Errorf("corpus: delta segment [%d,%d) claims %d events",
			seg.From, seg.To, numEvents)
	}
	c := &crcByteReader{br: br} // reused for its bounded readers; CRC unused here
	seg.Events = make([]DeltaEvent, 0, min(numEvents, 1<<16))
	for i := 0; i < numEvents; i++ {
		kind, err := c.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("corpus: delta event %d: %v", i, err)
		}
		ev := DeltaEvent{Kind: kind}
		switch kind {
		case DeltaEvict:
			// no body
		case DeltaAppend, DeltaJoin, DeltaMerge:
			n, err := c.readUvarint()
			if err != nil {
				return nil, fmt.Errorf("corpus: delta event %d length: %v", i, err)
			}
			if n > maxDeltaEventBytes {
				return nil, fmt.Errorf("corpus: delta event %d is %d bytes", i, n)
			}
			ev.Data, err = c.readBounded(n)
			if err != nil {
				return nil, fmt.Errorf("corpus: delta event %d body: %v", i, err)
			}
			if kind == DeltaMerge {
				snap, err := LoadAggSnapshot(bytes.NewReader(ev.Data))
				if err != nil {
					return nil, fmt.Errorf("corpus: delta event %d snapshot: %v", i, err)
				}
				if snap.NumSites != seg.NumSites || snap.NumPreds != seg.NumPreds {
					return nil, fmt.Errorf("corpus: delta event %d snapshot is %dx%d, segment is %dx%d",
						i, snap.NumSites, snap.NumPreds, seg.NumSites, seg.NumPreds)
				}
				ev.Snap = snap
			} else {
				rpt, walked, err := report.DecodeRecord(ev.Data, seg.NumSites, seg.NumPreds)
				if err != nil {
					return nil, fmt.Errorf("corpus: delta event %d report: %v", i, err)
				}
				if rest := len(ev.Data) - walked.Len; rest != 0 {
					return nil, fmt.Errorf("corpus: delta event %d has %d trailing bytes", i, rest)
				}
				ev.Report = rpt
			}
		default:
			return nil, fmt.Errorf("corpus: unknown delta event kind 0x%02x", kind)
		}
		seg.Events = append(seg.Events, ev)
	}
	return seg, nil
}

// ApplyDelta replays a decoded delta segment onto a warm state copy:
// snap is mutated in place, and the (possibly resliced) run window is
// returned. The caller owns both; ApplyDelta assumes the segment was
// validated by ReadDeltaSegment.
func ApplyDelta(snap *AggSnapshot, window []*report.Report, seg *DeltaSegment) ([]*report.Report, error) {
	for i, ev := range seg.Events {
		switch ev.Kind {
		case DeltaAppend:
			snap.ApplyReport(ev.Report, +1)
			window = append(window, ev.Report)
		case DeltaJoin:
			window = append(window, ev.Report)
		case DeltaEvict:
			if len(window) == 0 {
				return window, fmt.Errorf("corpus: delta event %d evicts from an empty window", i)
			}
			snap.ApplyReport(window[0], -1)
			window = window[1:]
		case DeltaMerge:
			if err := MergeAggSnapshot(snap, ev.Snap); err != nil {
				return window, fmt.Errorf("corpus: delta event %d: %v", i, err)
			}
		}
	}
	snap.Logged = int64(len(window))
	return window, nil
}

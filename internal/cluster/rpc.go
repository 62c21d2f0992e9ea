package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// The wire protocol is a single tiny frame shape in both directions:
//
//	4-byte big-endian length | 1-byte opcode | payload
//
// where length covers opcode+payload. Requests carry op* opcodes,
// responses carry status* opcodes. Cache lookups (the hot path) use a
// binary payload: one frame carries a whole batch of design points, each
// keyed on the packed-genome uint64 hash the shard tables already
// dispatch on, and the reply carries one status per point. Migrant and
// island traffic - control plane, a few frames per generation at most -
// rides JSON payloads.
const (
	opEval    byte = 0x01 // evaluate-or-lookup a batch of design points
	opMigrate byte = 0x02 // deposit migrants for an island's mailbox
	opIsland  byte = 0x03 // run one island of a cluster session

	statusOK   byte = 0x80 // payload: op-specific success body
	statusErr  byte = 0x81 // payload: error string (permanent, memoizable for an opEval item)
	statusMiss byte = 0x82 // opEval: owner cannot answer; caller resolves locally
)

// maxFrame bounds a frame's length word. Island results carry whole
// trajectories, so the cap is generous; anything larger is a protocol
// error, not a bigger buffer.
const maxFrame = 8 << 20

// writeFrame sends one frame.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("cluster: frame %d bytes exceeds cap", len(payload)+1)
	}
	hdr := make([]byte, 5, 5+len(payload))
	binary.BigEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = op
	_, err := w.Write(append(hdr, payload...))
	return err
}

// frameChunk is the largest payload readFrame sizes from the length word
// alone; a longer one grows as its bytes arrive.
const frameChunk = 64 << 10

// frameHeaders recycles readFrame's header buffer, which escapes through
// the reader interface, so a small frame costs one allocation: its payload.
var frameHeaders = sync.Pool{New: func() any { return new([5]byte) }}

// readFrame receives one frame. A payload up to frameChunk gets one
// exact-size buffer. A longer one starts at frameChunk and doubles only
// once the bytes read so far fill it, so a peer that declares a large
// frame and then stalls holds no more memory than it has actually sent.
func readFrame(r io.Reader) (byte, []byte, error) {
	hdr := frameHeaders.Get().(*[5]byte)
	_, err := io.ReadFull(r, hdr[:])
	n, op := binary.BigEndian.Uint32(hdr[:4]), hdr[4]
	frameHeaders.Put(hdr)
	if err != nil {
		return 0, nil, err
	}
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("cluster: frame length %d outside [1, %d]", n, maxFrame)
	}
	size := int(n) - 1
	payload := make([]byte, min(size, frameChunk))
	for off := 0; ; {
		k, err := io.ReadFull(r, payload[off:])
		off += k
		if err == io.EOF && off > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return 0, nil, err
		}
		if off == size {
			return op, payload, nil
		}
		payload = append(payload, make([]byte, min(off, size-off))...)
	}
}

// appendString appends a u16-length-prefixed string, cut to the longest
// prefix the length word can carry.
func appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// evalBatch is an opEval request: a batch of design points in one shared
// space (the catalog IP), each with its 64-bit genome hash so the owner
// can verify it and, on a miss, evaluate it.
type evalBatch struct {
	ip     string
	hashes []uint64
	pts    []param.Point
}

// encode builds the opEval payload: the IP, a u32 point count and a u16
// genome length, then per point its hash and its genes as 32-bit values.
// The points of one batch come from one space, so they share the length.
func (r evalBatch) encode() []byte {
	l := 0
	if len(r.pts) > 0 {
		l = len(r.pts[0])
	}
	b := make([]byte, 0, 2+len(r.ip)+6+len(r.pts)*(8+4*l))
	b = appendString(b, r.ip)
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.pts)))
	b = binary.BigEndian.AppendUint16(b, uint16(l))
	for k, pt := range r.pts {
		b = binary.BigEndian.AppendUint64(b, r.hashes[k])
		for _, v := range pt {
			b = binary.BigEndian.AppendUint32(b, uint32(int32(v)))
		}
	}
	return b
}

// decodeEvalBatch parses an opEval payload. The point count and genome
// length must account for every byte present before anything is
// allocated for them, and an empty batch carries length 0, so every
// accepted payload is the encoding of what it decodes to.
func decodeEvalBatch(b []byte) (evalBatch, error) {
	ip, b, err := takeString(b)
	if err != nil {
		return evalBatch{}, err
	}
	if len(b) < 6 {
		return evalBatch{}, fmt.Errorf("cluster: truncated eval batch")
	}
	n, l := int(binary.BigEndian.Uint32(b)), int(binary.BigEndian.Uint16(b[4:]))
	b = b[6:]
	if uint64(len(b)) != uint64(n)*uint64(8+4*l) || (n == 0 && l != 0) {
		return evalBatch{}, fmt.Errorf("cluster: eval batch of %d %d-gene points in %d bytes", n, l, len(b))
	}
	r := evalBatch{ip: ip, hashes: make([]uint64, n), pts: make([]param.Point, n)}
	genes := make([]int, n*l)
	for k := range r.pts {
		r.hashes[k] = binary.BigEndian.Uint64(b)
		pt := param.Point(genes[k*l : (k+1)*l : (k+1)*l])
		for i := range pt {
			pt[i] = int(int32(binary.BigEndian.Uint32(b[8+4*i:])))
		}
		r.pts[k] = pt
		b = b[8+4*l:]
	}
	return r, nil
}

// evalItem is one point's answer in an opEval reply: statusOK with its
// metrics, statusErr with its permanent error, or statusMiss when the
// owner declines and the asker resolves the point itself.
type evalItem struct {
	status byte
	m      metrics.Metrics
	err    string
}

// encodeEvalReply builds an opEval statusOK body: a u32 item count, then
// per item its status byte followed by its metrics (statusOK), its error
// string (statusErr) or nothing (statusMiss).
func encodeEvalReply(items []evalItem) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(items)))
	for _, it := range items {
		b = append(b, it.status)
		switch it.status {
		case statusOK:
			b = appendMetrics(b, it.m)
		case statusErr:
			b = appendString(b, it.err)
		}
	}
	return b
}

// decodeEvalReply parses an opEval statusOK body.
func decodeEvalReply(b []byte) ([]evalItem, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("cluster: truncated eval reply")
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint64(n) > uint64(len(b)) {
		return nil, fmt.Errorf("cluster: eval reply of %d items past frame end", n)
	}
	items := make([]evalItem, n)
	for k := range items {
		if len(b) < 1 {
			return nil, fmt.Errorf("cluster: truncated eval reply item %d", k)
		}
		it := &items[k]
		it.status, b = b[0], b[1:]
		var err error
		switch it.status {
		case statusOK:
			it.m, b, err = decodeMetrics(b)
		case statusErr:
			it.err, b, err = takeString(b)
		case statusMiss:
		default:
			err = fmt.Errorf("cluster: eval reply item %d has status 0x%02x", k, it.status)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing eval reply bytes", len(b))
	}
	return items, nil
}

// appendMetrics appends one metrics encoding: u16 entry count, then
// u16-prefixed name + float64 bits per entry, in sorted-name order so the
// encoding is canonical.
func appendMetrics(b []byte, m metrics.Metrics) []byte {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	b = binary.BigEndian.AppendUint16(b, uint16(len(names)))
	for _, k := range names {
		b = appendString(b, k)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(m[k]))
	}
	return b
}

// decodeMetrics parses one metrics encoding from the front of b and
// returns the rest. The map's size hint is capped by the entries the
// bytes present can hold (each takes at least a 2-byte name length and an
// 8-byte value), so a forged count costs nothing.
func decodeMetrics(b []byte) (metrics.Metrics, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("cluster: truncated metrics")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	m := make(metrics.Metrics, min(n, len(b)/10))
	for i := 0; i < n; i++ {
		var k string
		var err error
		k, b, err = takeString(b)
		if err != nil {
			return nil, nil, err
		}
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("cluster: truncated metric value")
		}
		m[k] = math.Float64frombits(binary.BigEndian.Uint64(b))
		b = b[8:]
	}
	return m, b, nil
}

// takeString consumes a u16-length-prefixed string.
func takeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("cluster: truncated string")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, fmt.Errorf("cluster: string length %d past frame end", n)
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}

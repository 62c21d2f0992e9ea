package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/iotest"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// TestDecodeMetricsForgedCount: a reply body that claims 65535 metrics
// but carries none is refused without sizing anything by the forged
// count.
func TestDecodeMetricsForgedCount(t *testing.T) {
	body := []byte{0xff, 0xff}
	if _, _, err := decodeMetrics(body); err == nil {
		t.Fatal("forged metric count accepted")
	}
	if avg := testing.AllocsPerRun(100, func() { decodeMetrics(body) }); avg > 4 {
		t.Errorf("decoding a forged count allocates %.0f times, want <= 4", avg)
	}
}

// FuzzReadFrame: any byte stream either yields one frame that re-encodes
// to exactly the bytes consumed, or an error when the header is short, its
// length word is outside [1, maxFrame], or the payload is cut off.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, opEval, []byte("payload")); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 1, statusMiss})
	f.Add([]byte{0, 0, 0, 0, opEval})
	f.Add([]byte{0, 0x80, 0, 1, opIsland})
	f.Add([]byte{0, 0, 0, 3, opMigrate, 'a'})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		op, payload, err := readFrame(bytes.NewReader(b))
		wellFormed := false
		if len(b) >= 5 {
			n := binary.BigEndian.Uint32(b)
			wellFormed = n >= 1 && n <= maxFrame && uint64(len(b)) >= 4+uint64(n)
		}
		if (err == nil) != wellFormed {
			t.Fatalf("readFrame(% x) err = %v, well-formed = %v", b, err, wellFormed)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, op, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), b[:5+len(payload)]) {
			t.Fatalf("frame re-encodes to % x, read from % x", out.Bytes(), b)
		}
	})
}

// FuzzEvalBatch: a decoded opEval request re-encodes to exactly its input,
// and serving it never lets a genome that is out of the space's range, or
// that does not match its hash, reach the cache. Every valid point is
// answered from one evaluation and memoized under its own hash; every
// other point is declined.
func FuzzEvalBatch(f *testing.F) {
	space, rawEval := testSpace()
	opt := param.Point{3, 12, 7, 9}
	h := space.Hash64(opt)
	for _, req := range []evalBatch{
		{ip: testIP, hashes: []uint64{h, space.Hash64(param.Point{0, 0, 0, 0}), h}, pts: []param.Point{opt, {0, 0, 0, 0}, opt}},
		{ip: testIP, hashes: []uint64{h}, pts: []param.Point{{3, 16, 7, 9}}},
		{ip: testIP, hashes: []uint64{h}, pts: []param.Point{{3, -1, 7, 9}}},
		{ip: testIP, hashes: []uint64{h + 1}, pts: []param.Point{opt}},
		{ip: testIP, hashes: []uint64{h}, pts: []param.Point{{3, 12}}},
		{ip: "other", hashes: []uint64{h}, pts: []param.Point{opt}},
		{ip: testIP},
	} {
		f.Add(req.encode())
	}
	f.Add([]byte{0x00, 0x02, 'h'})
	f.Add([]byte{0x00, 0x00, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decodeEvalBatch(b)
		if err != nil {
			if status, _ := (&Node{}).handleEval(b); status != statusErr {
				t.Fatalf("malformed request answered with status 0x%02x", status)
			}
			return
		}
		if got := req.encode(); !bytes.Equal(got, b) {
			t.Fatalf("request re-encodes to % x, decoded from % x", got, b)
		}

		var mu sync.Mutex
		evals := make(map[string]int)
		cache := dataset.NewCache(space, func(pt param.Point) (metrics.Metrics, error) {
			if len(pt) != space.Len() {
				t.Errorf("evaluator reached with a %d-gene genome", len(pt))
				return nil, dataset.MarkTransient(context.Canceled)
			}
			for i, v := range pt {
				if v < 0 || v >= space.Param(i).Card() {
					t.Errorf("evaluator reached with out-of-range genome %v", pt)
					return nil, dataset.MarkTransient(context.Canceled)
				}
			}
			mu.Lock()
			evals[space.Key(pt)]++
			mu.Unlock()
			return rawEval(pt)
		})
		n := &Node{baseCtx: context.Background(), opts: Options{
			Caches: func(ip string) (*dataset.Cache, *param.Space, bool) { return cache, space, ip == testIP },
		}}
		status, body := n.handleEval(b)
		if req.ip != testIP {
			if status != statusMiss {
				t.Fatalf("unknown IP answered with status 0x%02x", status)
			}
			return
		}
		if status != statusOK {
			t.Fatalf("request answered with status 0x%02x: %s", status, body)
		}
		items, err := decodeEvalReply(body)
		if err != nil || len(items) != len(req.pts) {
			t.Fatalf("reply: %d items, err %v, for %d points", len(items), err, len(req.pts))
		}
		var valid []param.Point
		for k, pt := range req.pts {
			if !validPoint(space, req.hashes[k], pt) {
				if items[k].status != statusMiss {
					t.Fatalf("invalid point %v (hash %x) answered with status 0x%02x", pt, req.hashes[k], items[k].status)
				}
				continue
			}
			valid = append(valid, pt)
			want, _ := rawEval(pt)
			if items[k].status != statusOK || items[k].m["cost"] != want["cost"] {
				t.Fatalf("valid point %v answered %+v, want %v", pt, items[k], want)
			}
		}
		for key, calls := range evals {
			if calls != 1 {
				t.Fatalf("point %s evaluated %d times", key, calls)
			}
		}
		// Every served point sits under its true hash: looking each up
		// again is a hit.
		before := len(evals)
		for _, pt := range valid {
			if _, err := cache.Evaluate(pt); err != nil {
				t.Fatal(err)
			}
		}
		if len(evals) != before || cache.DistinctEvaluations() != before {
			t.Fatalf("re-lookup evaluated %d new points", len(evals)-before)
		}
	})
}

// FuzzEvalReply: decoding never panics, and a decoded reply re-encodes to
// a canonical form that decodes to the same items and re-encodes to
// itself.
func FuzzEvalReply(f *testing.F) {
	f.Add(encodeEvalReply([]evalItem{
		{status: statusOK, m: metrics.Metrics{"cost": 1.5, "luts": 1200}},
		{status: statusErr, err: "infeasible"},
		{status: statusMiss},
	}))
	f.Add(encodeEvalReply([]evalItem{{status: statusOK, m: metrics.Metrics{"nan": math.NaN()}}}))
	f.Add([]byte{0, 0, 0, 1, 0x7f})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		items, err := decodeEvalReply(b)
		if err != nil {
			return
		}
		canon := encodeEvalReply(items)
		again, err := decodeEvalReply(canon)
		if err != nil {
			t.Fatalf("canonical reply % x refused: %v", canon, err)
		}
		if len(again) != len(items) {
			t.Fatalf("%d items decode back as %d", len(items), len(again))
		}
		for k := range items {
			if again[k].status != items[k].status || again[k].err != items[k].err || len(again[k].m) != len(items[k].m) {
				t.Fatalf("item %d: %+v decodes back as %+v", k, items[k], again[k])
			}
		}
		if !bytes.Equal(encodeEvalReply(again), canon) {
			t.Fatal("canonical reply is not a fixed point")
		}
	})
}

// FuzzDecodeMetrics: decoding never panics, consumes only what it parsed,
// and a decoded map re-encodes to a canonical form that round-trips to
// itself with no bytes left over.
func FuzzDecodeMetrics(f *testing.F) {
	f.Add(appendMetrics(nil, metrics.Metrics{"cost": 1.5, "fmax_mhz": 250}))
	f.Add(appendMetrics(nil, metrics.Metrics{"inf": math.Inf(1), "nan": math.NaN()}))
	f.Add([]byte{0xff, 0xff})
	f.Add([]byte{0x00, 0x01, 0x00, 0x01, 'x', 1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, rest, err := decodeMetrics(b)
		if err != nil {
			return
		}
		if len(b)-len(rest) < 2 || !bytes.Equal(rest, b[len(b)-len(rest):]) {
			t.Fatalf("decode left %d of %d bytes, not a suffix", len(rest), len(b))
		}
		canon := appendMetrics(nil, m)
		back, tail, err := decodeMetrics(canon)
		if err != nil || len(tail) != 0 || len(back) != len(m) {
			t.Fatalf("canonical metrics % x: %d entries, %d trailing bytes, err %v", canon, len(back), len(tail), err)
		}
		for k, v := range m {
			if math.Float64bits(back[k]) != math.Float64bits(v) {
				t.Fatalf("metric %q: %v decodes back as %v", k, v, back[k])
			}
		}
		if !bytes.Equal(appendMetrics(nil, back), canon) {
			t.Fatal("canonical metrics are not a fixed point")
		}
	})
}

// FuzzIslandSpec: the opIsland decoder fails closed. A payload it rejects
// is answered statusErr and runs nothing; a spec it accepts runs, and its
// migration exchange routes to a member inside the spec's member list. A
// spec of two or more islands with a migration block and no members, or
// with a negative island, used to panic the node on its first exchange.
func FuzzIslandSpec(f *testing.F) {
	for _, spec := range []IslandSpec{
		{Session: "s", Island: 1, Islands: 3, Members: []string{"a", "b"}, Migration: &MigrationSpec{Interval: 1, Count: 1}},
		{Session: "s", Island: 2, Islands: 3, Members: []string{"a"}, Migration: &MigrationSpec{Interval: 5, Count: 1}},
		{Session: "s", Island: 0, Islands: 1},
		{Session: "s", Island: 0, Islands: 2, Migration: &MigrationSpec{Interval: 5, Count: 1}},
		{Session: "s", Island: -1, Islands: 2, Members: []string{"a"}, Migration: &MigrationSpec{Interval: 5, Count: 1}},
		{Session: "s", Island: 2, Islands: 2, Members: []string{"a", "b"}},
	} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"island":0,"islands":0,"members":["a"]}`))
	f.Add([]byte(`{"island":1}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, b []byte) {
		ran := false
		var n *Node
		n = &Node{
			baseCtx:  context.Background(),
			mail:     make(map[mailKey]chan []ga.Migrant),
			sessions: make(map[string]int),
			opts: Options{ID: "a", RunIsland: func(ctx context.Context, spec IslandSpec) (IslandResult, error) {
				ran = true
				if mig := spec.Exchange(n); mig != nil {
					// One exchange under a canceled context: it routes the
					// emigrants (to a local mailbox, or to a peer this node
					// cannot dial), then returns without waiting.
					cctx, cancel := context.WithCancel(ctx)
					cancel()
					_, _ = mig.Exchange(cctx, mig.Interval, []ga.Migrant{{Genome: param.Point{0}}})
				}
				return IslandResult{Island: spec.Island}, nil
			}},
		}
		spec, err := decodeIslandSpec(b)
		status, body := n.handleIsland(b)
		if err != nil {
			if status != statusErr || ran {
				t.Fatalf("rejected spec (%v) answered with status 0x%02x, ran %v", err, status, ran)
			}
			return
		}
		if status != statusOK || !ran {
			t.Fatalf("accepted spec %+v answered with status 0x%02x (%s), ran %v", spec, status, body, ran)
		}
		// For two or more islands the exchange above indexed
		// members[(island+1)%islands%len(members)], which is in range
		// exactly when these hold.
		if spec.Island < 0 || spec.Island >= spec.Islands || (spec.Islands > 1 && len(spec.Members) == 0) {
			t.Fatalf("accepted spec %+v cannot route its migrants", spec)
		}
	})
}

// TestReadFrameStalledLargeClaim: a header claiming a maxFrame payload
// followed by 10 bytes and EOF fails, having allocated for the bytes
// that arrived rather than for the claimed length.
func TestReadFrameStalledLargeClaim(t *testing.T) {
	b := binary.BigEndian.AppendUint32(nil, maxFrame)
	b = append(b, opIsland)
	b = append(b, make([]byte, 10)...)
	var rd bytes.Reader
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		rd.Reset(b)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := readFrame(&rd)
		runtime.ReadMemStats(&after)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated frame: err = %v, want %v", err, io.ErrUnexpectedEOF)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 128<<10 {
		t.Errorf("a stalled %d-byte frame claim allocated %d bytes, want < 128 KiB", maxFrame, least)
	}
}

// TestReadFrameLarge: a payload past frameChunk arrives whole through the
// growing buffer, whether the reader hands it over at once or in pieces.
func TestReadFrameLarge(t *testing.T) {
	payload := make([]byte, 3*frameChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, statusOK, payload); err != nil {
		t.Fatal(err)
	}
	for _, r := range []io.Reader{bytes.NewReader(buf.Bytes()), iotest.HalfReader(bytes.NewReader(buf.Bytes()))} {
		op, got, err := readFrame(r)
		if err != nil || op != statusOK || !bytes.Equal(got, payload) {
			t.Fatalf("readFrame = (0x%02x, %d bytes, %v), want (0x%02x, %d bytes)", op, len(got), err, statusOK, len(payload))
		}
	}
}

// TestReadFrameSmallAllocs pins a small frame at one allocation: its
// exact-size payload.
func TestReadFrameSmallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, opEval, make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	var rd bytes.Reader
	avg := testing.AllocsPerRun(100, func() {
		rd.Reset(buf.Bytes())
		if _, _, err := readFrame(&rd); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 1 {
		t.Errorf("a 200-byte frame costs %.1f allocations, want 1", avg)
	}
}

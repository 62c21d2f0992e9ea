package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"

	"nautilus/internal/telemetry/trace"
)

// Journal is the trace sink that writes one JSON object per span or record
// (JSONL) - the machine-readable run record that survives the process,
// replayable by any downstream analysis. Every line carries an "event"
// discriminator and "t_ms", milliseconds of wall clock since the journal
// was opened. Wall time is observational only; journaling never feeds back
// into the search, so results stay byte-identical with journaling on or
// off.
//
// Writes are buffered and serialized under a mutex (events arrive from
// concurrent evaluation workers); call Close (or at least Flush) when the
// run ends.
type Journal struct {
	mu    sync.Mutex
	bw    *bufio.Writer
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewJournal starts a journal on w. The caller retains ownership of any
// underlying file; Close flushes the journal but does not close w.
func NewJournal(w io.Writer) *Journal {
	bw := bufio.NewWriter(w)
	return &Journal{bw: bw, enc: json.NewEncoder(bw), start: time.Now()}
}

// finite returns a pointer to v for JSON encoding, nil (-> null) when v is
// NaN or infinite - encoding/json rejects non-finite floats.
func finite(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// emit writes one event line. Errors are sticky and reported by Close.
func (j *Journal) emit(event any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(event)
}

// sinceMillis is the journal-relative timestamp of an event.
func (j *Journal) sinceMillis() float64 {
	return float64(time.Since(j.start)) / float64(time.Millisecond)
}

// journal line formats, one struct per event type. Field names are part of
// the JSONL contract documented in the README's Observability section.
type journalSpan struct {
	Event   string  `json:"event"`
	TMillis float64 `json:"t_ms"`
	trace.Span
	DurMicros float64 `json:"dur_us"`
}

type journalGeneration struct {
	Event           string   `json:"event"`
	TMillis         float64  `json:"t_ms"`
	Generation      int      `json:"gen"`
	BestValue       *float64 `json:"best,omitempty"`
	BestFitness     *float64 `json:"best_fitness,omitempty"`
	MeanFitness     *float64 `json:"mean_fitness,omitempty"`
	Feasible        int      `json:"feasible"`
	UniqueGenomes   int      `json:"unique"`
	DistinctEvals   int      `json:"distinct_evals"`
	ElapsedMillis   float64  `json:"elapsed_ms"`
	CacheHits       int      `json:"cache_hits"`
	CacheMisses     int      `json:"cache_misses"`
	CacheDedups     int      `json:"cache_dedups"`
	CacheTransient  int      `json:"cache_transient"`
	CacheCollisions int      `json:"cache_collisions"`
}

type journalEvaluation struct {
	Event      string   `json:"event"`
	TMillis    float64  `json:"t_ms"`
	Generation int      `json:"gen"`
	Feasible   bool     `json:"feasible"`
	Fitness    *float64 `json:"fitness,omitempty"`
}

type journalHint struct {
	Event      string  `json:"event"`
	TMillis    float64 `json:"t_ms"`
	Generation int     `json:"gen"`
	Gene       int     `json:"gene"`
	Mechanism  string  `json:"mechanism"`
	Guided     bool    `json:"guided"`
}

type journalPool struct {
	Event   string  `json:"event"`
	TMillis float64 `json:"t_ms"`
	Kind    string  `json:"kind"`
	Worker  int     `json:"worker"`
}

// OnSpan implements trace.Sink.
func (j *Journal) OnSpan(sp trace.Span) {
	j.emit(journalSpan{
		Event:     "span",
		TMillis:   j.sinceMillis(),
		Span:      sp,
		DurMicros: float64(sp.Duration) / float64(time.Microsecond),
	})
}

// OnGeneration implements trace.Sink.
func (j *Journal) OnGeneration(g trace.GenerationRecord) {
	j.emit(journalGeneration{
		Event:           "generation",
		TMillis:         j.sinceMillis(),
		Generation:      g.Generation,
		BestValue:       finite(g.BestValue),
		BestFitness:     finite(g.BestFitness),
		MeanFitness:     finite(g.MeanFitness),
		Feasible:        g.Feasible,
		UniqueGenomes:   g.UniqueGenomes,
		DistinctEvals:   g.DistinctEvals,
		ElapsedMillis:   float64(g.Elapsed) / float64(time.Millisecond),
		CacheHits:       g.CacheHits,
		CacheMisses:     g.CacheMisses,
		CacheDedups:     g.CacheDedups,
		CacheTransient:  g.CacheTransient,
		CacheCollisions: g.CacheCollisions,
	})
}

// OnEvaluation implements trace.Sink.
func (j *Journal) OnEvaluation(e trace.EvaluationRecord) {
	j.emit(journalEvaluation{
		Event:      "eval",
		TMillis:    j.sinceMillis(),
		Generation: e.Generation,
		Feasible:   e.Feasible,
		Fitness:    finite(e.Fitness),
	})
}

// OnHint implements trace.Sink.
func (j *Journal) OnHint(h trace.HintRecord) {
	j.emit(journalHint{
		Event:      "hint",
		TMillis:    j.sinceMillis(),
		Generation: h.Generation,
		Gene:       h.Gene,
		Mechanism:  h.Mechanism,
		Guided:     h.Guided,
	})
}

// OnPool implements trace.Sink.
func (j *Journal) OnPool(p trace.PoolRecord) {
	j.emit(journalPool{Event: "pool", TMillis: j.sinceMillis(), Kind: p.Event, Worker: p.Worker})
}

// Flush forces buffered lines out to the underlying writer.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// Close flushes the journal and returns the first error encountered over
// its lifetime. It does not close the underlying writer.
func (j *Journal) Close() error { return j.Flush() }

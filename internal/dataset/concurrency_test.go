package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// outcome is the plan's permanent answer for pt: what every lookup that
// does not end transiently must return.
func (p faultPlan) outcome(pt param.Point) (metrics.Metrics, error) {
	return faultPlan{permanent: p.permanent}.evaluator()(pt)
}

// Cancellation modes of one concurrent batch.
const (
	liveCtx       = iota
	canceledFirst // the context is canceled before the batch starts
	canceledMid   // the context is canceled while the batch runs
)

type concBatch struct {
	pts    []param.Point
	par    int
	cancel int
}

// concWorkload is one generated concurrent workload over refSpace: a fault
// plan, the points a remote tier forwards (and, of those, the ones it
// declines to answer), and per goroutine a sequence of batches, looked up
// either directly or through the goroutine's own child cache stacked on
// the cache under test.
type concWorkload struct {
	plan     faultPlan
	forward  map[string]bool
	declined map[string]bool
	workers  [][]concBatch
	stacked  []bool
}

func (concWorkload) Generate(r *rand.Rand, size int) reflect.Value {
	w := concWorkload{
		plan:     faultPlan{transient: map[string]int{}, permanent: map[string]bool{}},
		forward:  map[string]bool{},
		declined: map[string]bool{},
	}
	refSpace.Enumerate(func(pt param.Point) bool {
		key := refSpace.Key(pt)
		if r.Intn(4) == 0 {
			w.plan.transient[key] = 1 + r.Intn(2)
		}
		if r.Intn(6) == 0 {
			w.plan.permanent[key] = true
		}
		if r.Intn(4) == 0 {
			w.forward[key] = true
			w.declined[key] = r.Intn(3) == 0
		}
		return true
	})
	// A small hot set makes goroutines collide on the same points.
	hot := make([]param.Point, 6)
	for i := range hot {
		hot[i] = refSpace.Random(r)
	}
	pick := func() param.Point {
		if r.Intn(2) == 0 {
			return hot[r.Intn(len(hot))].Clone()
		}
		return refSpace.Random(r)
	}
	w.workers = make([][]concBatch, 2+r.Intn(3))
	w.stacked = make([]bool, len(w.workers))
	for g := range w.workers {
		w.stacked[g] = r.Intn(3) == 0
		for n := 1 + r.Intn(size/8+2); n > 0; n-- {
			b := concBatch{par: 1 + r.Intn(3)}
			switch k := r.Intn(10); {
			case k == 0:
				b.cancel = canceledFirst
			case k < 3:
				b.cancel = canceledMid
			}
			for m := 1 + r.Intn(10); m > 0; m-- {
				pt := pick()
				b.pts = append(b.pts, pt)
				if r.Intn(3) == 0 {
					b.pts = append(b.pts, pt.Clone())
				}
			}
			w.workers[g] = append(w.workers[g], b)
		}
	}
	return reflect.ValueOf(w)
}

// concRemote is a remote tier over the workload's forwarded points: it
// answers each with the plan's permanent outcome unless declined.
type concRemote struct {
	w       *concWorkload
	keys    map[uint64]string
	mu      sync.Mutex
	answers map[string]int
}

func (f *concRemote) Forwards(_ context.Context, h uint64) bool { return f.w.forward[f.keys[h]] }

func (f *concRemote) LookupBatch(_ context.Context, hashes []uint64, pts []param.Point, ms []metrics.Metrics, errs []error, ok []bool) {
	for k, h := range hashes {
		key := f.keys[h]
		if f.w.declined[key] {
			continue
		}
		ms[k], errs[k] = f.w.plan.outcome(pts[k])
		ok[k] = true
		f.mu.Lock()
		f.answers[key]++
		f.mu.Unlock()
	}
}

// TestConcurrentBatchesMatchReference runs generated concurrent workloads
// through one Cache: several goroutines issue batches with in-batch
// duplicates, points shared across goroutines, transient evaluator errors,
// canceled contexts and a remote tier, some of them through their own
// child cache stacked on it (SetParent). It checks that
//
//   - every evaluator call is one distinct point or one withdrawn
//     transient: a point is evaluated to a permanent outcome at most once,
//     never both locally and remotely, a child's own evaluator is never
//     called, and Stats agrees;
//   - the cache counts one lookup per child miss: its Total is the direct
//     lookups plus the children's Distinct + Transient;
//   - no batch waits on its own entries, so every workload finishes under
//     its timeout;
//   - every lookup that does not end transiently, directly or through a
//     child, returns its point's permanent outcome, and once every point is
//     settled Export equals the reference cache's.
func TestConcurrentBatchesMatchReference(t *testing.T) {
	keys := make(map[uint64]string)
	var all []param.Point
	refSpace.Enumerate(func(pt param.Point) bool {
		keys[refSpace.Hash64(pt)] = refSpace.Key(pt)
		all = append(all, pt.Clone())
		return true
	})
	check := func(w concWorkload) bool {
		var mu sync.Mutex
		permanentCalls := map[string]int{}
		transientCalls := 0
		planEval := w.plan.evaluator()
		c := NewCacheContext(refSpace, func(ctx context.Context, pt param.Point) (metrics.Metrics, error) {
			runtime.Gosched()
			var m metrics.Metrics
			err := ctx.Err()
			if err != nil {
				err = MarkTransient(err)
			} else {
				m, err = planEval(pt)
			}
			mu.Lock()
			defer mu.Unlock()
			if IsTransient(err) {
				transientCalls++
			} else {
				permanentCalls[refSpace.Key(pt)]++
			}
			return m, err
		})
		rem := &concRemote{w: &w, keys: keys, answers: map[string]int{}}
		c.SetRemote(rem)

		failures := make(chan string, 64)
		fail := func(format string, args ...any) {
			select {
			case failures <- fmt.Sprintf(format, args...):
			default:
			}
		}
		children := make([]*Cache, len(w.workers))
		for g, stacked := range w.stacked {
			if stacked {
				children[g] = NewCacheContext(refSpace, func(context.Context, param.Point) (metrics.Metrics, error) {
					fail("worker %d: child evaluator called", g)
					return nil, nil
				})
				children[g].SetParent(c)
			}
		}
		var wg sync.WaitGroup
		direct := 0
		for g, batches := range w.workers {
			lc := c
			if children[g] != nil {
				lc = children[g]
			} else {
				for _, b := range batches {
					direct += len(b.pts)
				}
			}
			wg.Add(1)
			go func(g int, batches []concBatch) {
				defer wg.Done()
				for bi, b := range batches {
					ctx, cancel := context.WithCancel(context.Background())
					switch b.cancel {
					case canceledFirst:
						cancel()
					case canceledMid:
						time.AfterFunc(50*time.Microsecond, cancel)
					}
					ms, errs, err := evalBatch(lc, ctx, nil, b.pts, b.par)
					cancel()
					if err != nil && b.cancel == liveCtx {
						fail("worker %d batch %d: live batch failed: %v", g, bi, err)
					}
					for k, pt := range b.pts {
						if errs[k] != nil && IsTransient(errs[k]) {
							continue
						}
						wm, werr := w.plan.outcome(pt)
						if !sameOutcome(ms[k], errs[k], wm, werr) {
							fail("worker %d batch %d item %d (%s): (%v, %v), want (%v, %v)",
								g, bi, k, refSpace.Key(pt), ms[k], errs[k], wm, werr)
						}
					}
				}
			}(g, batches)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("concurrent batches did not finish (a batch waiting on itself?)\n%s", buf[:runtime.Stack(buf, true)])
		}
		close(failures)
		ok := true
		for f := range failures {
			t.Log(f)
			ok = false
		}

		// Every evaluator call is one distinct point or one withdrawn
		// transient, and every child miss is one lookup here.
		st := c.Stats()
		total := direct
		for _, child := range children {
			if child != nil {
				cst := child.Stats()
				total += cst.Distinct + cst.Transient
			}
		}
		resolved := 0
		for key, n := range permanentCalls {
			if n != 1 || rem.answers[key] != 0 {
				t.Logf("point %s: %d permanent evaluator calls, %d remote answers", key, n, rem.answers[key])
				ok = false
			}
			resolved++
		}
		for key, n := range rem.answers {
			if n != 1 {
				t.Logf("point %s: %d remote answers", key, n)
				ok = false
			}
			if permanentCalls[key] == 0 {
				resolved++
			}
		}
		if st.Total != total || st.Distinct != resolved || st.Transient < transientCalls {
			t.Logf("Stats %+v after %d lookups (%d direct), %d resolved points, %d transient evaluator calls",
				st, total, direct, resolved, transientCalls)
			ok = false
		}

		// Settle every point with live sequential lookups, then the memo
		// must be exactly the reference cache's over the permanent outcomes.
		for round := 0; ; round++ {
			_, errs, err := evalBatch(c, context.Background(), nil, all, 1)
			if err != nil {
				t.Logf("settling batch: %v", err)
				return false
			}
			pending := false
			for _, e := range errs {
				pending = pending || (e != nil && IsTransient(e))
			}
			if !pending {
				break
			}
			if round > 3 {
				t.Log("points still transient after settling")
				return false
			}
		}
		ref := newRefCache(refSpace, func(pt param.Point) (metrics.Metrics, error) { return w.plan.outcome(pt) })
		ref.batch(all, false)
		if got, want := c.Export().Entries, ref.export().Entries; !reflect.DeepEqual(got, want) {
			t.Logf("settled Export %+v, reference %+v", got, want)
			ok = false
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

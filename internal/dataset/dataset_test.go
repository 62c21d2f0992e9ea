package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// toySpace is a tiny 2-parameter space whose "cost" metric is a simple
// deterministic function, with one infeasible corner.
func toySpace() (*param.Space, Evaluator) {
	s := param.MustSpace(
		param.Int("a", 0, 9, 1),
		param.Int("b", 0, 9, 1),
	)
	eval := func(pt param.Point) (metrics.Metrics, error) {
		a, b := s.Int(pt, "a"), s.Int(pt, "b")
		if a == 9 && b == 9 {
			return nil, errors.New("infeasible corner")
		}
		return metrics.Metrics{
			"cost":          float64(10*a + b),
			metrics.FmaxMHz: 100 + float64(a),
			metrics.LUTs:    float64(1 + b),
		}, nil
	}
	return s, eval
}

func TestCacheCountsDistinct(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	pt := param.Point{1, 2}
	for i := 0; i < 5; i++ {
		if _, err := c.Evaluate(pt); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.DistinctEvaluations(); got != 1 {
		t.Errorf("distinct = %d, want 1", got)
	}
	if got := c.TotalQueries(); got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
	if _, err := c.Evaluate(param.Point{3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := c.DistinctEvaluations(); got != 2 {
		t.Errorf("distinct = %d, want 2", got)
	}
}

func TestCacheCountsInfeasibleAsSpent(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	bad := param.Point{9, 9}
	if _, err := c.Evaluate(bad); err == nil {
		t.Fatal("expected infeasible error")
	}
	// Error is cached too.
	if _, err := c.Evaluate(bad); err == nil {
		t.Fatal("expected cached infeasible error")
	}
	if got := c.DistinctEvaluations(); got != 1 {
		t.Errorf("distinct = %d, want 1 (infeasible still costs a job)", got)
	}
}

func TestCacheReset(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	c.Evaluate(param.Point{0, 0})
	c.Reset()
	if c.DistinctEvaluations() != 0 || c.TotalQueries() != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestCacheConcurrent(t *testing.T) {
	s, eval := toySpace()
	c := NewCache(s, eval)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Evaluate(param.Point{i % 9, (i * 7) % 10})
			}
		}()
	}
	wg.Wait()
	// 9*10 minus how many of those pairs never occur; just sanity-check
	// bounds: distinct <= unique pairs touched <= 90, total = 800.
	if c.TotalQueries() != 800 {
		t.Errorf("total = %d, want 800", c.TotalQueries())
	}
	if c.DistinctEvaluations() > 90 {
		t.Errorf("distinct = %d, want <= 90", c.DistinctEvaluations())
	}
}

func buildToy(t *testing.T) (*param.Space, *Dataset) {
	t.Helper()
	s, eval := toySpace()
	d, err := Build(s, eval)
	if err != nil {
		t.Fatal(err)
	}
	return s, d
}

func TestBuildCounts(t *testing.T) {
	_, d := buildToy(t)
	if d.Size() != 99 {
		t.Errorf("Size = %d, want 99", d.Size())
	}
	if d.Infeasible() != 1 {
		t.Errorf("Infeasible = %d, want 1", d.Infeasible())
	}
}

func TestLookupAndEvaluator(t *testing.T) {
	s, d := buildToy(t)
	m, ok := d.Lookup(param.Point{2, 3})
	if !ok || m["cost"] != 23 {
		t.Fatalf("Lookup = %v,%v", m, ok)
	}
	ev := d.Evaluator()
	if _, err := ev(param.Point{9, 9}); err == nil {
		t.Error("dataset evaluator should report missing points infeasible")
	}
	got, err := ev(param.Point{5, 5})
	if err != nil || got["cost"] != 55 {
		t.Errorf("evaluator = %v, %v", got, err)
	}
	_ = s
}

func TestBestMinimize(t *testing.T) {
	s, d := buildToy(t)
	pt, v := d.Best(metrics.MinimizeMetric("cost"))
	if v != 0 || s.Int(pt, "a") != 0 || s.Int(pt, "b") != 0 {
		t.Errorf("Best = %v at %s", v, s.Describe(pt))
	}
	pt, v = d.Best(metrics.MaximizeMetric("cost"))
	if v != 98 { // 9,9 is infeasible so best is 9,8
		t.Errorf("Best max cost = %v, want 98", v)
	}
	_ = pt
}

func TestRankAndScore(t *testing.T) {
	_, d := buildToy(t)
	obj := metrics.MinimizeMetric("cost")
	if r := d.Rank(obj, 0); r != 0 {
		t.Errorf("Rank(0) = %d, want 0", r)
	}
	if r := d.Rank(obj, 5); r != 5 { // costs 0..4 are strictly better
		t.Errorf("Rank(5) = %d, want 5", r)
	}
	if s := d.Score(obj, 0); s != 100 {
		t.Errorf("Score(best) = %v, want 100", s)
	}
	if s := d.Score(obj, 98); s > 2 {
		t.Errorf("Score(worst) = %v, want <= 2", s)
	}
	if !d.InTopPercent(obj, 0, 1) {
		t.Error("optimum should be in top 1%")
	}
	if d.InTopPercent(obj, 50, 1) {
		t.Error("median should not be in top 1%")
	}
}

func TestRankMaximize(t *testing.T) {
	_, d := buildToy(t)
	obj := metrics.MaximizeMetric("cost")
	if r := d.Rank(obj, 98); r != 0 {
		t.Errorf("Rank(max) = %d, want 0", r)
	}
	if r := d.Rank(obj, 96); r != 2 { // 98 and 97 are better
		t.Errorf("Rank(96) = %d, want 2", r)
	}
}

func TestQuantile(t *testing.T) {
	_, d := buildToy(t)
	obj := metrics.MinimizeMetric("cost")
	if q := d.Quantile(obj, 0); q != 0 {
		t.Errorf("Quantile(0) = %v, want 0 (best)", q)
	}
	if q := d.Quantile(obj, 1); q != 98 {
		t.Errorf("Quantile(1) = %v, want 98 (worst)", q)
	}
	mid := d.Quantile(obj, 0.5)
	if mid < 40 || mid > 60 {
		t.Errorf("Quantile(0.5) = %v, want mid-range", mid)
	}
}

func TestCountWithinAndRandomDraws(t *testing.T) {
	_, d := buildToy(t)
	obj := metrics.MinimizeMetric("cost")
	if k := d.CountWithin(obj, 4); k != 5 { // costs 0..4
		t.Errorf("CountWithin(4) = %d, want 5", k)
	}
	// (n+1)/(k+1) with n=100 (99 feasible + 1 infeasible), k=5 -> 101/6.
	want := 101.0 / 6
	if got := d.ExpectedRandomDraws(obj, 4); math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedRandomDraws = %v, want %v", got, want)
	}
}

func TestEachVisitsAllFeasible(t *testing.T) {
	_, d := buildToy(t)
	n := 0
	d.Each(func(pt param.Point, m metrics.Metrics) bool {
		if m == nil {
			t.Fatal("nil metrics in Each")
		}
		n++
		return true
	})
	if n != d.Size() {
		t.Errorf("Each visited %d, want %d", n, d.Size())
	}
	// Early stop.
	n = 0
	d.Each(func(pt param.Point, m metrics.Metrics) bool { n++; return false })
	if n != 1 {
		t.Errorf("Each early-stop visited %d, want 1", n)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s, d := buildToy(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(s, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != d.Size() {
		t.Fatalf("round-trip size %d, want %d", back.Size(), d.Size())
	}
	if back.Infeasible() != d.Infeasible() {
		t.Errorf("round-trip infeasible %d, want %d", back.Infeasible(), d.Infeasible())
	}
	d.Each(func(pt param.Point, m metrics.Metrics) bool {
		got, ok := back.Lookup(pt)
		if !ok {
			t.Fatalf("point %s missing after round trip", s.Key(pt))
		}
		for name, v := range m {
			if got[name] != v {
				t.Fatalf("point %s metric %s: %v != %v", s.Key(pt), name, got[name], v)
			}
		}
		return true
	})
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	s, _ := toySpace()
	cases := []string{
		"",                         // empty
		"x,y,cost\n1,2,3\n",        // wrong header
		"a,b,cost\n1\n",            // short row
		"a,b,cost\n42,2,3\n",       // unknown param value
		"a,b,cost\n1,2,zzz\n",      // bad float
		"a,b,cost\n1,2,3\n1,2,4\n", // duplicate point
	}
	// An ambiguous header fails on line 1, before a repeated column's
	// last value could silently win.
	ambiguous := []string{
		"a,b,cost,cost\n1,2,3,4\n", // repeated column
		"a,b,\n1,2,3\n",            // empty metric name
		"a,b,x\r,cost\n1,2,3,4\n",  // name a line read would strip
	}
	for _, c := range append(cases, ambiguous...) {
		if _, err := ReadCSV(s, bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("ReadCSV(%q) succeeded, want error", c)
		}
	}
	for _, c := range ambiguous {
		if _, err := ReadCSV(s, bytes.NewReader([]byte(c))); err == nil || !strings.Contains(err.Error(), "line 1") {
			t.Errorf("ReadCSV(%q) = %v, want a line-1 error", c, err)
		}
	}
}

func TestBuildRejectsAllInfeasible(t *testing.T) {
	s := param.MustSpace(param.Flag("x"))
	_, err := Build(s, func(param.Point) (metrics.Metrics, error) {
		return nil, errors.New("nope")
	})
	if err == nil {
		t.Error("Build with no feasible points should fail")
	}
}

// Property: Score is monotone - a better objective value never scores lower.
func TestQuickScoreMonotone(t *testing.T) {
	_, d := buildToy(t)
	obj := metrics.MinimizeMetric("cost")
	f := func(a, b uint8) bool {
		va, vb := float64(a%99), float64(b%99)
		if va > vb {
			va, vb = vb, va
		}
		return d.Score(obj, va) >= d.Score(obj, vb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Rank and CountWithin are consistent: rank counts strictly
// better, CountWithin counts better-or-equal, so for any value present in
// the dataset CountWithin > Rank.
func TestQuickRankCountConsistent(t *testing.T) {
	_, d := buildToy(t)
	obj := metrics.MinimizeMetric("cost")
	f := func(raw uint8) bool {
		v := float64(raw % 99) // every such cost value exists
		return d.CountWithin(obj, v) > d.Rank(obj, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRankOnRealisticTies(t *testing.T) {
	// A dataset where many points share the same objective value.
	s := param.MustSpace(param.Int("x", 0, 99, 1))
	d, err := Build(s, func(pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"v": float64(s.Int(pt, "x") / 10)}, nil // 10-way ties
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := metrics.MinimizeMetric("v")
	if r := d.Rank(obj, 0); r != 0 {
		t.Errorf("Rank(0) = %d, want 0", r)
	}
	if r := d.Rank(obj, 1); r != 10 {
		t.Errorf("Rank(1) = %d, want 10 (ten zeros strictly better)", r)
	}
	if k := d.CountWithin(obj, 1); k != 20 {
		t.Errorf("CountWithin(1) = %d, want 20", k)
	}
}

func TestWriteCSVStableHeader(t *testing.T) {
	_, d := buildToy(t)
	var a, b bytes.Buffer
	if err := d.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("WriteCSV output not deterministic")
	}
	header := a.String()[:bytes.IndexByte(a.Bytes(), '\n')]
	want := fmt.Sprintf("a,b,cost,%s,%s", metrics.FmaxMHz, metrics.LUTs)
	if header != want {
		t.Errorf("header = %q, want %q", header, want)
	}
}

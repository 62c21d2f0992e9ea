package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"nautilus/internal/metrics"
	"nautilus/internal/param"
)

// refTable is the reference oracle for Dataset: the string-keyed map it
// replaced, filled by enumerating the space in flat order. Each of its
// answers is the specification the flat-indexed table must reproduce.
type refTable struct {
	space      *param.Space
	keys       []string // feasible keys in enumeration order
	byKey      map[string]metrics.Metrics
	infeasible int
}

func newRefTable(s *param.Space, eval Evaluator) *refTable {
	ref := &refTable{space: s, byKey: make(map[string]metrics.Metrics)}
	s.Enumerate(func(pt param.Point) bool {
		m, err := eval(pt)
		if err != nil {
			ref.infeasible++
			return true
		}
		key := s.Key(pt)
		ref.byKey[key] = m
		ref.keys = append(ref.keys, key)
		return true
	})
	return ref
}

// best is the first strictly best feasible key in enumeration order.
func (ref *refTable) best(obj metrics.Objective) (string, float64) {
	bestKey, bestVal := "", obj.Worst()
	for _, key := range ref.keys {
		if v, ok := obj.Value(ref.byKey[key]); ok && obj.Better(v, bestVal) {
			bestKey, bestVal = key, v
		}
	}
	return bestKey, bestVal
}

// rank counts the feasible designs strictly better than value.
func (ref *refTable) rank(obj metrics.Objective, value float64) int {
	n := 0
	for _, m := range ref.byKey {
		if v, ok := obj.Value(m); ok && obj.Better(v, value) {
			n++
		}
	}
	return n
}

// tableCase is one generated table: a space of 1-5 parameters with 1-6
// values each, and per point (in enumeration order) a cost, or -1 for an
// infeasible point. Costs take few values, so ties are common.
type tableCase struct {
	cards []int
	costs []int
}

func (tableCase) Generate(r *rand.Rand, _ int) reflect.Value {
	tc := tableCase{cards: make([]int, 1+r.Intn(5))}
	n := 1
	for i := range tc.cards {
		tc.cards[i] = 1 + r.Intn(6)
		n *= tc.cards[i]
	}
	infeasible := r.Float64()
	tc.costs = make([]int, n)
	for i := range tc.costs {
		tc.costs[i] = r.Intn(8)
		if r.Float64() < infeasible {
			tc.costs[i] = -1
		}
	}
	return reflect.ValueOf(tc)
}

// build returns the case's space and an evaluator keyed by canonical
// string key, so the ground truth owes nothing to flat indexing.
func (tc tableCase) build() (*param.Space, Evaluator) {
	ps := make([]*param.Param, len(tc.cards))
	for i, c := range tc.cards {
		ps[i] = param.Int(fmt.Sprintf("p%d", i), 0, c-1, 1)
	}
	s := param.MustSpace(ps...)
	cost := make(map[string]int, len(tc.costs))
	i := 0
	s.Enumerate(func(pt param.Point) bool {
		cost[s.Key(pt)] = tc.costs[i]
		i++
		return true
	})
	return s, func(pt param.Point) (metrics.Metrics, error) {
		c := cost[s.Key(pt)]
		if c < 0 {
			return nil, errors.New("infeasible")
		}
		return metrics.Metrics{"cost": float64(c)}, nil
	}
}

// lookupPanic calls d.Lookup(pt) and returns what it panicked with (nil
// when it returned).
func lookupPanic(d *Dataset, pt param.Point) (p any) {
	defer func() { p = recover() }()
	d.Lookup(pt)
	return nil
}

// checkMalformed checks that a malformed point panics with Validate's
// error instead of reading another point's slot.
func checkMalformed(d *Dataset, pt param.Point) error {
	want := d.Space().Validate(pt)
	if want == nil {
		return fmt.Errorf("point %v is not malformed", pt)
	}
	got, ok := lookupPanic(d, pt).(error)
	if !ok || got.Error() != want.Error() {
		return fmt.Errorf("Lookup(%v) panicked with %v, want %v", pt, got, want)
	}
	return nil
}

// checkTable checks a table against itself: Lookup returns Each's metrics
// for every point Each visits, and Size+Infeasible covers the space.
func checkTable(t *testing.T, d *Dataset) {
	t.Helper()
	n := 0
	d.Each(func(pt param.Point, m metrics.Metrics) bool {
		n++
		got, ok := d.Lookup(pt)
		if !ok || reflect.ValueOf(got).Pointer() != reflect.ValueOf(m).Pointer() {
			t.Fatalf("Lookup(%v) = %v, %v; Each gave %v", pt, got, ok, m)
		}
		return true
	})
	if n != d.Size() {
		t.Fatalf("Each visited %d points, Size says %d", n, d.Size())
	}
	if got, want := uint64(d.Size()+d.Infeasible()), d.Space().Cardinality(); got != want {
		t.Fatalf("Size+Infeasible = %d, want the cardinality %d", got, want)
	}
}

// matchRef compares a table with the reference on every point's Lookup,
// Each's order, Size, Infeasible, Best and Rank.
func matchRef(d *Dataset, ref *refTable) error {
	s := ref.space
	if d.Size() != len(ref.keys) || d.Infeasible() != ref.infeasible {
		return fmt.Errorf("size/infeasible %d/%d, want %d/%d", d.Size(), d.Infeasible(), len(ref.keys), ref.infeasible)
	}
	var err error
	s.Enumerate(func(pt param.Point) bool {
		want, wantOK := ref.byKey[s.Key(pt)]
		if got, ok := d.Lookup(pt); ok != wantOK || !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("Lookup(%v) = %v, %v; want %v, %v", pt, got, ok, want, wantOK)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	var order []string
	d.Each(func(pt param.Point, m metrics.Metrics) bool {
		order = append(order, s.Key(pt))
		return true
	})
	if !reflect.DeepEqual(order, ref.keys) {
		return fmt.Errorf("Each order %v, want %v", order, ref.keys)
	}
	for _, obj := range []metrics.Objective{metrics.MinimizeMetric("cost"), metrics.MaximizeMetric("cost")} {
		pt, v := d.Best(obj)
		if key, want := ref.best(obj); s.Key(pt) != key || v != want {
			return fmt.Errorf("Best(%v) = %v at %v, want %v at %s", obj, v, pt, want, key)
		}
		for c := -1.5; c <= 8.5; c += 0.5 {
			if got, want := d.Rank(obj, c), ref.rank(obj, c); got != want {
				return fmt.Errorf("Rank(%v, %v) = %d, want %d", obj, c, got, want)
			}
		}
	}
	return nil
}

// TestTableMatchesReference checks tables from Build at parallelism 1 and
// 3, and from ReadCSV of their WriteCSV, against the map-keyed reference
// over generated spaces and feasibility masks, and checks that malformed
// points panic rather than alias another point's slot.
func TestTableMatchesReference(t *testing.T) {
	f := func(tc tableCase, seed int64) bool {
		s, eval := tc.build()
		ref := newRefTable(s, eval)
		var tables []*Dataset
		for _, par := range []int{1, 3} {
			d, err := BuildParallel(s, eval, par)
			if len(ref.keys) == 0 {
				if err == nil {
					t.Logf("par %d: Build of an all-infeasible space succeeded", par)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("par %d: %v", par, err)
				return false
			}
			tables = append(tables, d)
		}
		if len(tables) == 0 {
			return true
		}
		var buf bytes.Buffer
		if err := tables[0].WriteCSV(&buf); err != nil {
			t.Log(err)
			return false
		}
		back, err := ReadCSV(s, &buf)
		if err != nil {
			t.Log(err)
			return false
		}
		tables = append(tables, back)
		r := rand.New(rand.NewSource(seed))
		for i, d := range tables {
			if err := matchRef(d, ref); err != nil {
				t.Logf("table %d of %v: %v", i, tc.cards, err)
				return false
			}
			pt := s.Random(r)
			g := r.Intn(len(pt))
			for _, bad := range []param.Point{
				append(pt[:g:g], append([]int{tc.cards[g]}, pt[g+1:]...)...),
				append(pt[:g:g], append([]int{-1}, pt[g+1:]...)...),
				pt[:len(pt)-1],
				append(pt.Clone(), 0),
			} {
				if err := checkMalformed(d, bad); err != nil {
					t.Logf("table %d of %v: %v", i, tc.cards, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLookupRejectsMalformedPoints pins the aliasing case: in a 4x4 space
// the flat fold of {0,4} is the index of {1,0}, so a missing bounds check
// would answer with another point's metrics.
func TestLookupRejectsMalformedPoints(t *testing.T) {
	s := param.MustSpace(param.Int("x", 0, 3, 1), param.Int("y", 0, 3, 1))
	d, err := Build(s, func(pt param.Point) (metrics.Metrics, error) {
		return metrics.Metrics{"cost": float64(s.FlatIndex(pt))}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range []param.Point{{0, 4}, {-1, 3}, {4, 0}, {0}, {}, {0, 0, 0}} {
		if err := checkMalformed(d, pt); err != nil {
			t.Error(err)
		}
	}
}

// TestTableRefusesHugeSpace checks that a space above the table bound is
// refused with an error before any evaluation.
func TestTableRefusesHugeSpace(t *testing.T) {
	s := param.MustSpace(param.Int("a", 0, 4095, 1), param.Int("b", 0, 4096, 1))
	called := false
	if _, err := Build(s, func(param.Point) (metrics.Metrics, error) {
		called = true
		return metrics.Metrics{}, nil
	}); err == nil || called {
		t.Errorf("Build over %d points: err %v, evaluator called %v; want a refusal before any call", s.Cardinality(), err, called)
	}
	if _, err := ReadCSV(s, bytes.NewReader([]byte("a,b,cost\n0,0,1\n"))); err == nil {
		t.Error("ReadCSV accepted a space above the table bound")
	}
}

// TestLookupAllocs pins the table read: a lookup folds the genome into its
// flat index and reads one slot, allocating nothing.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts only hold in non-race builds")
	}
	_, d := buildToy(t)
	pt := param.Point{2, 3}
	if avg := testing.AllocsPerRun(200, func() { d.Lookup(pt) }); avg != 0 {
		t.Errorf("Lookup allocates %.1f times per call, want 0", avg)
	}
}

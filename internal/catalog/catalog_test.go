package catalog

import (
	"context"
	"testing"

	"nautilus/internal/dataset"
	"nautilus/internal/ga"
)

func TestLookupAllPairs(t *testing.T) {
	for _, ip := range IPs() {
		qs, err := Queries(ip)
		if err != nil {
			t.Fatalf("Queries(%s): %v", ip, err)
		}
		if len(qs) == 0 {
			t.Fatalf("IP %s has no queries", ip)
		}
		for _, q := range qs {
			e, err := Lookup(ip, q)
			if err != nil {
				t.Fatalf("Lookup(%s,%s): %v", ip, q, err)
			}
			if e.Space == nil || e.Eval == nil || e.Library == nil || e.Objective.Name() == "" {
				t.Fatalf("Lookup(%s,%s): incomplete entry", ip, q)
			}
			for _, level := range GuidanceLevels() {
				g, err := e.Guidance(level, nil)
				if err != nil {
					t.Fatalf("Guidance(%s,%s,%s): %v", ip, q, level, err)
				}
				if (g == nil) != (level == GuidanceBaseline) {
					t.Fatalf("Guidance(%s,%s,%s): nil=%v", ip, q, level, g == nil)
				}
			}
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("dsp", "min-luts"); err == nil {
		t.Fatal("unknown IP accepted")
	}
	if _, err := Lookup("fft", "max-power"); err == nil {
		t.Fatal("unknown query accepted")
	}
	if _, err := Queries("dsp"); err == nil {
		t.Fatal("unknown IP accepted by Queries")
	}
	e, err := Lookup("fft", "min-luts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Guidance("medium", nil); err == nil {
		t.Fatal("unknown guidance level accepted")
	}
}

// TestSpaceShared asserts the per-IP space is one shared instance - the
// invariant the server's per-space shared cache keys off.
func TestSpaceShared(t *testing.T) {
	a, err := Lookup("gemm", "min-luts")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Lookup("gemm", "max-gmacs")
	if err != nil {
		t.Fatal(err)
	}
	if a.Space != b.Space {
		t.Fatal("two lookups of the same IP returned distinct space instances")
	}
}

// TestDeterministicSearch pins the catalog path to the search result the
// pre-refactor CLI produced: same entry, same config, same best point.
func TestDeterministicSearch(t *testing.T) {
	e, err := Lookup("fft", "min-luts")
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Guidance(GuidanceStrong, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() string {
		eng, err := ga.NewContext(e.Space, e.Objective, dataset.AdaptContext(e.Eval),
			ga.Config{PopulationSize: 6, Generations: 5, Seed: 3}, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.BestPoint == nil {
			t.Fatal("no feasible point")
		}
		return e.Space.Describe(res.BestPoint)
	}
	first := run()
	if second := run(); first != second {
		t.Fatalf("catalog searches not deterministic: %q vs %q", first, second)
	}
}

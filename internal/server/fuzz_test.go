package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"nautilus/internal/catalog"
	"nautilus/internal/core"
	"nautilus/internal/ga"
)

// FuzzJobSpec feeds arbitrary bytes to the /v1 submit path up to the point
// a session would start: the body decoder, the defaults and resolve,
// inline hints through core.LoadLibrary included. It must never panic, and
// every spec it accepts must be runnable: a population in
// [2, ga.MaxPopulation], at least one generation, positive parallelism, a
// non-negative seed, and queries consistent with the mode.
func FuzzJobSpec(f *testing.F) {
	entry, err := catalog.Lookup("fft", "min-luts")
	if err != nil {
		f.Fatal(err)
	}
	var hints bytes.Buffer
	if err := entry.Library.SaveJSON(&hints); err != nil {
		f.Fatal(err)
	}
	withHints := testSpec()
	withHints.Hints = hints.Bytes()
	for _, spec := range []JobSpec{testSpec(), paretoSpec(), portfolioSpec(), withHints, {IP: "noc", Query: "max-frequency"}} {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		`{}`,
		`{"ip":"gemm","query":"min-luts","population":-1}`,
		`{"ip":"fft","query":"min-luts","population":65537}`,
		`{"ip":"fft","mode":"pareto","queries":["min-luts","min-luts"]}`,
		`{"ip":"fft","query":"min-luts","hints":{"metrics":{"luts":{"nope":{"bias":1}}}}}`,
		`{"ip":"fft","query":"min-luts","seed":-3,"extra":1}`,
		`{"ip":"fft","query":"min-luts"} trailing`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec = spec.withDefaults(4)
		entry, _, objs, err := spec.resolve()
		if err != nil {
			return
		}
		if spec.Population < 2 || spec.Population > ga.MaxPopulation {
			t.Errorf("accepted population %d", spec.Population)
		}
		if spec.Generations < 1 || spec.Parallelism < 1 || spec.Seed < 0 {
			t.Errorf("accepted generations %d, parallelism %d, seed %d", spec.Generations, spec.Parallelism, spec.Seed)
		}
		if entry == nil || entry.IP != spec.IP {
			t.Fatalf("accepted %q resolved to entry %+v", spec.IP, entry)
		}
		switch spec.Mode {
		case "", core.ModeScalar, core.ModePortfolio:
			if len(spec.Queries) > 0 || objs != nil || entry.Query != spec.Query {
				t.Errorf("%q job with query %q, queries %q resolved to %q and %d objectives",
					spec.Mode, spec.Query, spec.Queries, entry.Query, len(objs))
			}
		case core.ModePareto:
			seen := map[string]bool{}
			for _, q := range spec.Queries {
				seen[q] = true
			}
			if spec.Query != "" || len(spec.Queries) < 2 || len(seen) != len(spec.Queries) ||
				len(objs) != len(spec.Queries) || entry.Query != spec.Queries[0] {
				t.Errorf("pareto job with query %q, queries %q resolved to %q and %d objectives",
					spec.Query, spec.Queries, entry.Query, len(objs))
			}
		default:
			t.Errorf("accepted mode %q", spec.Mode)
		}
	})
}

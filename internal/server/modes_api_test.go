package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"nautilus/internal/catalog"
	"nautilus/internal/core"
)

// paretoSpec is the small deterministic two-objective job the mode tests
// use: minimize LUTs against maximize throughput on the fft space.
func paretoSpec() JobSpec {
	return JobSpec{
		IP:          "fft",
		Mode:        core.ModePareto,
		Queries:     []string{"min-luts", "max-throughput"},
		Guidance:    catalog.GuidanceStrong,
		Generations: 8,
		Population:  8,
		Seed:        3,
		Parallelism: 2,
	}
}

func portfolioSpec() JobSpec {
	spec := testSpec()
	spec.Mode = core.ModePortfolio
	return spec
}

// TestParetoSessionAPI drives a pareto job through the full /v1 surface:
// submit with mode+queries, front growth on SSE and status, and the final
// front on the result - mutually non-dominating, values in queries order.
func TestParetoSessionAPI(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	spec := paretoSpec()
	resp, body := c.do("POST", "/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pareto submit: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	c.decode(body, &st)
	final := waitDone(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("pareto job ended %s: %s", final.State, final.Error)
	}
	if final.FrontSize == 0 {
		t.Error("finished pareto status has front_size 0")
	}
	if final.Hypervolume <= 0 {
		t.Errorf("finished pareto status hypervolume = %v, want > 0", final.Hypervolume)
	}

	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) != final.FrontSize {
		t.Errorf("result front has %d members, status says %d", len(res.Front), final.FrontSize)
	}
	if got, want := strings.Join(res.Objectives, ","), strings.Join(spec.Queries, ","); got != want {
		t.Errorf("result objectives %q, want %q", got, want)
	}
	if len(res.Nadir) != 2 || res.Hypervolume != final.Hypervolume {
		t.Errorf("result nadir/hypervolume inconsistent: %+v vs status %+v", res, final)
	}
	// Mutual non-domination across the front, and every member carries one
	// value per objective. Front[0] is best on the primary objective, so
	// the scalar BestValue must match its first value.
	for i, a := range res.Front {
		if len(a.Values) != 2 {
			t.Fatalf("front[%d] has %d values, want 2", i, len(a.Values))
		}
		if a.Key == "" || a.Configuration == "" {
			t.Errorf("front[%d] missing key/configuration: %+v", i, a)
		}
		for j, b := range res.Front {
			if i == j {
				continue
			}
			// a dominates b: no worse on both, strictly better on one.
			noWorseLuts := a.Values[0] <= b.Values[0]       // min-luts
			noWorseThroughput := a.Values[1] >= b.Values[1] // max-throughput
			strict := a.Values[0] < b.Values[0] || a.Values[1] > b.Values[1]
			if noWorseLuts && noWorseThroughput && strict {
				t.Errorf("front[%d] %v dominates front[%d] %v", i, a.Values, j, b.Values)
			}
		}
	}
	if res.BestValue != res.Front[0].Values[0] {
		t.Errorf("scalar best %v != primary value of front[0] %v", res.BestValue, res.Front[0].Values[0])
	}

	// SSE progress streams the per-generation front growth.
	gens, done := readEvents(t, ts.URL+"/v1/jobs/"+st.ID+"/events")
	if len(gens) == 0 {
		t.Fatal("no SSE generation events")
	}
	last := gens[len(gens)-1]
	if last.FrontSize == 0 || last.Hypervolume <= 0 {
		t.Errorf("final SSE event missing front progress: %+v", last)
	}
	for i := 1; i < len(gens); i++ {
		if gens[i].FrontSize < gens[i-1].FrontSize && gens[i].Generation > gens[i-1].Generation {
			// The archive only grows or swaps dominated members for better
			// ones; a shrinking front would mean the stream lost state.
			t.Errorf("SSE front size shrank: gen %d had %d, gen %d has %d",
				gens[i-1].Generation, gens[i-1].FrontSize, gens[i].Generation, gens[i].FrontSize)
		}
	}
	if done.FrontSize != final.FrontSize {
		t.Errorf("SSE done status front_size %d, want %d", done.FrontSize, final.FrontSize)
	}

	// The pareto metric families materialize once a pareto session exists.
	_, metricsBody := c.do("GET", "/metrics", nil)
	for _, fam := range []string{"nautilus_pareto_front_size", "nautilus_pareto_hypervolume"} {
		if !strings.Contains(string(metricsBody), fam) {
			t.Errorf("family %s missing from /metrics after a pareto session", fam)
		}
	}
}

// TestPortfolioSessionAPI drives a portfolio job end to end: the result
// carries every raced strategy's outcome with exactly one winner, and the
// nautilus_portfolio_* families materialize on /metrics.
func TestPortfolioSessionAPI(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	resp, body := c.do("POST", "/v1/jobs", portfolioSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("portfolio submit: status %d, body %s", resp.StatusCode, body)
	}
	var st JobStatus
	c.decode(body, &st)
	final := waitDone(t, s, st.ID)
	if final.State != StateDone {
		t.Fatalf("portfolio job ended %s: %s", final.State, final.Error)
	}
	res, err := s.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Portfolio) != 3 {
		t.Fatalf("portfolio outcomes: %+v, want guided/baseline/anneal", res.Portfolio)
	}
	winners := 0
	for _, o := range res.Portfolio {
		if o.Winner {
			winners++
			if o.BestValue != res.BestValue {
				t.Errorf("winner %s best %v != merged best %v", o.Strategy, o.BestValue, res.BestValue)
			}
		}
		if o.DistinctEvals == 0 {
			t.Errorf("strategy %s reports zero evaluations", o.Strategy)
		}
	}
	if winners != 1 {
		t.Errorf("portfolio has %d winners, want exactly 1", winners)
	}
	// The merged distinct count is the shared tier's: at most the sum of
	// the strategies' private counts (usually far below - that gap is the
	// dedup the race buys).
	sum := 0
	for _, o := range res.Portfolio {
		sum += o.DistinctEvals
	}
	if res.DistinctEvals > sum {
		t.Errorf("merged distinct %d exceeds strategies' sum %d", res.DistinctEvals, sum)
	}

	_, metricsBody := c.do("GET", "/metrics", nil)
	for _, fam := range []string{
		"nautilus_portfolio_races_total",
		"nautilus_portfolio_strategy_wins_total",
		"nautilus_portfolio_strategy_evals_total",
		"nautilus_portfolio_evals_saved_total",
	} {
		if !strings.Contains(string(metricsBody), fam) {
			t.Errorf("family %s missing from /metrics after a portfolio session", fam)
		}
	}
}

// TestPortfolioMatchesSolo checks that a served portfolio race reports
// what the same race run alone reports: every strategy layers on the
// race's shared dedup tier, so the merged accounting covers all three
// strategies, not only the annealer.
func TestPortfolioMatchesSolo(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			spec := JobSpec{
				IP:          "fft",
				Query:       "min-luts",
				Mode:        core.ModePortfolio,
				Guidance:    catalog.GuidanceStrong,
				Generations: 20,
				Population:  10,
				Seed:        3,
				Parallelism: par,
			}
			want, _ := soloRun(t, spec)
			s := newTestServer(t, Options{})
			defer s.Drain(context.Background())
			st, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if final := waitDone(t, s, st.ID); final.State != StateDone {
				t.Fatalf("portfolio job ended %s: %s", final.State, final.Error)
			}
			got, err := s.Result(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got.DistinctEvals != want.DistinctEvals || got.TotalQueries != want.Cache.Total ||
				got.CacheHits != want.Cache.Hits || got.BestValue != want.BestValue {
				t.Errorf("served distinct/queries/hits/best %d/%d/%d/%v, solo %d/%d/%d/%v",
					got.DistinctEvals, got.TotalQueries, got.CacheHits, got.BestValue,
					want.DistinctEvals, want.Cache.Total, want.Cache.Hits, want.BestValue)
			}
			if !reflect.DeepEqual(got.Portfolio, want.Portfolio) {
				t.Errorf("served outcomes %+v, solo %+v", got.Portfolio, want.Portfolio)
			}
		})
	}
}

// TestModeValidation pins the submit-time rejections for malformed mode
// specs - each must 400 with the uniform envelope, never start a session.
func TestModeValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &apiClient{t: t, base: ts.URL}

	cases := []struct {
		name string
		spec JobSpec
	}{
		{"unknown mode", JobSpec{IP: "fft", Query: "min-luts", Mode: "nsga3"}},
		{"queries in scalar mode", JobSpec{IP: "fft", Query: "min-luts", Queries: []string{"max-snr"}}},
		{"queries in portfolio mode", JobSpec{IP: "fft", Query: "min-luts", Mode: core.ModePortfolio, Queries: []string{"max-snr"}}},
		{"pareto with query", JobSpec{IP: "fft", Query: "min-luts", Mode: core.ModePareto, Queries: []string{"min-luts", "max-snr"}}},
		{"pareto single objective", JobSpec{IP: "fft", Mode: core.ModePareto, Queries: []string{"min-luts"}}},
		{"pareto duplicate query", JobSpec{IP: "fft", Mode: core.ModePareto, Queries: []string{"min-luts", "min-luts"}}},
		{"pareto unknown query", JobSpec{IP: "fft", Mode: core.ModePareto, Queries: []string{"min-luts", "max-widgets"}}},
	}
	for _, tc := range cases {
		resp, body := c.do("POST", "/v1/jobs", tc.spec)
		var env ErrorEnvelope
		c.decode(body, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != CodeBadRequest {
			t.Errorf("%s: status %d code %q, want 400 bad_request (body %s)",
				tc.name, resp.StatusCode, env.Error.Code, body)
		}
	}
}

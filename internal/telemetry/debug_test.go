package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestServeDebug boots two introspection endpoints on ephemeral ports and
// checks each renders its own live registry under /metrics (nothing is
// shared process-wide), /debug/vars is gone, and the pprof index answers.
func TestServeDebug(t *testing.T) {
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(addr, path string) (int, string) {
		t.Helper()
		resp, err := client.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	regA, regB := NewRegistry(), NewRegistry()
	regA.Counter(MetricCacheHits).Add(41)
	regB.Counter(MetricCacheHits).Add(222)
	addrA, err := ServeDebug("127.0.0.1:0", regA)
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := ServeDebug("127.0.0.1:0", regB)
	if err != nil {
		t.Fatal(err)
	}
	regA.Counter(MetricCacheHits).Inc() // live updates must be visible

	for addr, want := range map[string]string{addrA: "nautilus_cache_hits 42\n", addrB: "nautilus_cache_hits 222\n"} {
		code, body := get(addr, "/metrics")
		if code != http.StatusOK || !strings.Contains(body, want) {
			t.Errorf("GET %s/metrics: status %d, want a line %q in:\n%s", addr, code, want, body)
		}
		if code, _ := get(addr, "/debug/vars"); code != http.StatusNotFound {
			t.Errorf("GET %s/debug/vars: status %d, want 404", addr, code)
		}
		if code, _ := get(addr, "/debug/pprof/cmdline"); code != http.StatusOK {
			t.Errorf("GET %s/debug/pprof/cmdline: status %d", addr, code)
		}
	}
}

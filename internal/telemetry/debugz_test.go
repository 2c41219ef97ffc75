package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func fetch(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestDebugzEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("livo_pli_sent_total").Add(2)
	reg.Gauge("livo_split_s").Set(0.85)
	reg.Histogram("livo_relay_read_batch_pkts", []float64{1, 2, 4}).Observe(3)

	srv := httptest.NewServer(HandlerWith(reg, nil))
	defer srv.Close()

	page := fetch(t, srv, "/debugz")
	for _, want := range []string{"livo_pli_sent_total", "livo_split_s"} {
		if !strings.Contains(page, want) {
			t.Errorf("/debugz missing %q:\n%s", want, page)
		}
	}

	metrics := fetch(t, srv, "/debugz/metrics")
	if !strings.Contains(metrics, "livo_pli_sent_total 2") {
		t.Errorf("/debugz/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, "livo_relay_read_batch_pkts_bucket") {
		t.Errorf("/debugz/metrics missing histogram buckets:\n%s", metrics)
	}

	if vars := fetch(t, srv, "/debug/vars"); !strings.Contains(vars, "cmdline") {
		t.Errorf("/debug/vars not serving expvar:\n%.200s", vars)
	}
	if idx := fetch(t, srv, "/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ not serving pprof index:\n%.200s", idx)
	}
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	srv, addr, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debugz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

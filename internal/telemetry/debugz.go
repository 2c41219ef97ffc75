package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// HandlerWith returns an http.Handler exposing reg:
//
//	/debugz             human-readable overview: counters and gauges
//	/debugz/metrics     Prometheus text exposition
//	/debug/vars         expvar
//	/debug/pprof/       pprof index (profile, heap, goroutine, ...)
//
// plus extra endpoints mounted at their map keys (e.g. "/debugz/stages",
// "/debugz/subscribers"); callers use it to hang subsystem-specific debug
// pages off one server without this package importing them. Extra paths
// are listed on the /debugz overview.
func HandlerWith(reg *Registry, extra map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	extraPaths := make([]string, 0, len(extra))
	for path, h := range extra {
		mux.Handle(path, h)
		extraPaths = append(extraPaths, path)
	}
	sort.Strings(extraPaths)
	mux.HandleFunc("/debugz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeDebugz(w, reg, extraPaths)
	})
	mux.HandleFunc("/debugz/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WriteMetrics(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeDebugz renders the human overview page.
func writeDebugz(w http.ResponseWriter, reg *Registry, extraPaths []string) {
	fmt.Fprintf(w, "livo /debugz — %s\n", time.Now().Format(time.RFC3339))
	fmt.Fprintf(w, "see also: /debugz/metrics /debug/vars /debug/pprof/")
	for _, p := range extraPaths {
		fmt.Fprintf(w, " %s", p)
	}
	fmt.Fprintf(w, "\n\n")

	// The counter and gauge lines /debugz/metrics writes.
	fmt.Fprintf(w, "== counters & gauges ==\n")
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	kind := ""
	for _, line := range strings.Split(sb.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			kind = f[3]
		} else if name, v, ok := strings.Cut(line, " "); ok && kind != "histogram" {
			fmt.Fprintf(w, "%-40s %s\n", name, v)
		}
	}
}

// ServeDebug starts the debug endpoint on addr (e.g. "127.0.0.1:6060") in
// a background goroutine and returns the server plus the bound address
// (useful with port 0). Close the returned server to stop it.
func ServeDebug(addr string, reg *Registry) (*http.Server, string, error) {
	return ServeDebugWith(addr, reg, nil)
}

// ServeDebugWith is ServeDebug with extra endpoints (see HandlerWith).
func ServeDebugWith(addr string, reg *Registry, extra map[string]http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: HandlerWith(reg, extra)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

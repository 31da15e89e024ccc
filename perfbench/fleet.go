package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"parascope/internal/cluster"
	"parascope/internal/server"
)

// fleetSize is the number of pedd managers behind the gateway.
const fleetSize = 2

// analysisCacheSize is cmd/pedd's default analysis cache capacity.
const analysisCacheSize = 128

// Fleet is one cluster.Gateway in front of fleetSize server.Managers,
// each on its own loopback listener with its own journal directory,
// all in this process.
type Fleet struct {
	URL      string
	Backends []string
	Metrics  []*server.Metrics
	GW       *cluster.Metrics

	mgrs    []*server.Manager
	servers []*http.Server
	gw      *cluster.Gateway
	dir     string
	stop    sync.Once
}

// startFleet starts the managers with cmd/pedd's default settings
// (analysis cache 128, fsync interval, snapshot every 64, plan cache
// 32 by default), puts the gateway in front and returns once the
// gateway's ring holds every manager. wrap, when set, wraps each
// manager's handler (the traced run's timing middleware).
func startFleet(dir, runCache string, wrap func(http.Handler) http.Handler) (*Fleet, error) {
	fsync, err := server.ParseFsyncPolicy("interval")
	if err != nil {
		return nil, err
	}
	f := &Fleet{dir: dir, GW: cluster.NewMetrics()}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	var backends []cluster.Backend
	for i := 0; i < fleetSize; i++ {
		data := filepath.Join(dir, fmt.Sprintf("pedd%d", i))
		if err := os.MkdirAll(data, 0o755); err != nil {
			f.Stop()
			return nil, err
		}
		metrics := server.NewMetrics()
		mgr := server.NewManager(server.Config{
			TTL:           30 * time.Minute,
			CacheSize:     analysisCacheSize,
			DataDir:       data,
			Fsync:         fsync,
			SnapshotEvery: 64,
			Metrics:       metrics,
			RunCacheDir:   runCache,
		})
		f.mgrs = append(f.mgrs, mgr)
		if _, err := mgr.Recover(); err != nil {
			f.Stop()
			return nil, fmt.Errorf("recover: %w", err)
		}
		var h http.Handler = server.NewWith(mgr, server.Options{Metrics: metrics, Ready: &server.Readiness{}})
		if wrap != nil {
			h = wrap(h)
		}
		url, err := f.serve(h)
		if err != nil {
			f.Stop()
			return nil, err
		}
		f.Metrics = append(f.Metrics, metrics)
		f.Backends = append(f.Backends, url)
		backends = append(backends, cluster.Backend{Addr: url})
	}
	f.gw = cluster.NewGateway(cluster.Config{
		Backends:      backends,
		ProbeInterval: 10 * time.Millisecond,
		Metrics:       f.GW,
		AccessLog:     quiet,
		Logf:          func(string, ...interface{}) {},
	})
	url, err := f.serve(f.gw)
	if err != nil {
		f.Stop()
		return nil, err
	}
	f.URL = url
	f.gw.Start()
	deadline := time.Now().Add(10 * time.Second)
	for f.GW.RingBackends.Value() < fleetSize {
		if time.Now().After(deadline) {
			f.Stop()
			return nil, errors.New("gateway ring did not converge within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func (f *Fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	f.servers = append(f.servers, srv)
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// Stop shuts the gateway, listeners and managers down and removes the
// journal directories. Calls after the first do nothing.
func (f *Fleet) Stop() { f.stop.Do(f.shutdown) }

func (f *Fleet) shutdown() {
	if f.gw != nil {
		f.gw.Stop()
	}
	for _, s := range f.servers {
		_ = s.Close()
	}
	for _, m := range f.mgrs {
		m.Shutdown()
	}
	_ = os.RemoveAll(f.dir)
}

// regSnapshot is a reading of the managers' metric registries,
// summed over the fleet.
type regSnapshot struct {
	queueWaitSum, queueWaitN       float64
	cacheHits, cacheMisses         float64
	materializations               float64
	appendSum, appendN             float64
	fsyncSum, fsyncN, journalBytes float64
}

func (f *Fleet) snapshot() regSnapshot {
	var s regSnapshot
	for _, m := range f.Metrics {
		s.queueWaitSum += m.QueueWait.Sum()
		s.queueWaitN += float64(m.QueueWait.Count())
		s.cacheHits += float64(m.CacheHits.Value())
		s.cacheMisses += float64(m.CacheMisses.Value())
		s.materializations += float64(m.Materializations.Value())
		s.appendSum += m.JournalAppend.Sum()
		s.appendN += float64(m.JournalAppend.Count())
		s.fsyncSum += m.JournalFsync.Sum()
		s.fsyncN += float64(m.JournalFsync.Count())
		s.journalBytes += float64(m.JournalBytes.Value())
	}
	return s
}

// tracedPrefix starts the request ID of a request the timing
// middleware records. The gateway forwards X-Request-ID to pedd.
const tracedPrefix = "t"

// handlerRecorder is the traced run's timing middleware: it records
// a span per marked pedd request, keyed by the request ID the
// benchmark's client sent.
type handlerRecorder struct {
	mu    sync.Mutex
	spans []Span
}

func (hr *handlerRecorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.Header.Get("X-Request-ID"), tracedPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		sp := Span{Name: "server." + routeVerb(r.Method, r.URL.Path), Req: r.Header.Get("X-Request-ID"),
			Start: start.UnixNano(), End: end.UnixNano()}
		hr.mu.Lock()
		hr.spans = append(hr.spans, sp)
		hr.mu.Unlock()
	})
}

// routeVerb names the session verb of a pedd request path.
func routeVerb(method, path string) string {
	rest := strings.TrimPrefix(path, "/v1/sessions")
	switch {
	case rest == "" && method == http.MethodPost:
		return "open"
	case strings.Count(rest, "/") == 1 && method == http.MethodDelete:
		return "close"
	case strings.Count(rest, "/") == 2:
		return rest[strings.LastIndex(rest, "/")+1:]
	}
	return "other"
}

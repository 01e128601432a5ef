package main

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"gcao/internal/obs"
	"gcao/internal/obs/reqtrace"
)

// routeLabel maps a request path onto the daemon's bounded route
// vocabulary, so per-route metric labels cannot explode with client
// garbage: known routes map to themselves, parameterized routes
// collapse their id segment, everything else is "other".
func routeLabel(path string) string {
	switch path {
	case "/compile", "/compile/batch", "/metrics", "/healthz",
		"/debug/cache", "/debug/requests", "/debug/live":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/debug/requests/") && strings.HasSuffix(path, "/critpath"):
		return "/debug/requests/{id}/critpath"
	case strings.HasPrefix(path, "/debug/requests/"):
		return "/debug/requests/{id}"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

// statusWriter captures the response status for the RED ledger. It
// forwards Flush so streaming handlers (/debug/live) work through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// withObs is the ingress middleware every route runs under: it mints
// the request id, ingests (or mints) the W3C trace context and opens
// the request's span tree, answers with X-Request-Id and traceparent
// headers before the handler runs — so even sheds and timeouts carry
// them — and feeds the RED families and the in-flight gauge.
func (s *server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		route := routeLabel(r.URL.Path)
		id := fmt.Sprintf("r%06d", s.seq.Add(1))
		tr, _ := reqtrace.FromTraceparent("http "+route, r.Header.Get("traceparent"))
		tr.SetReqID(id)
		// Open the first phase immediately so the tiling covers the
		// whole request: middleware and handler overhead land in
		// "ingress", not in an unaccounted gap.
		tr.Root().Phase("ingress")
		w.Header().Set("X-Request-Id", id)
		w.Header().Set("Traceparent", tr.Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		s.inflight.Add(1)
		next.ServeHTTP(sw, r.WithContext(reqtrace.NewContext(r.Context(), tr)))
		s.inflight.Add(-1)
		s.reg.ObserveHTTP(route, sw.status(), time.Since(t0).Seconds())
	})
}

// reqID returns the middleware-minted id of the request being served.
func reqID(r *http.Request) string {
	return reqtrace.FromContext(r.Context()).ReqID()
}

// publish closes the request's span tree, absorbs its recorder into
// the registry and retains the request's one record in the store,
// keyed by the id the response's X-Request-Id header carries. Every
// compile path calls it before writing any response bytes, so a
// client that resolves the id as soon as the response arrives always
// finds the record.
func (s *server) publish(tr *reqtrace.Trace, route string, code int, err error, rec *obs.Recorder, resp *compileResponse, t0 time.Time) {
	status := "ok"
	if err != nil {
		status = "error"
	}
	s.reg.Absorb(rec, status)
	tr.Root().End()
	doc := tr.Doc()
	r := reqtrace.Record{
		ID:         tr.ReqID(),
		TraceID:    doc.TraceID,
		Route:      route,
		Status:     code,
		UnixNS:     t0.UnixNano(),
		WallUS:     doc.Root.DurUS,
		Phases:     reqtrace.PhaseTotals(doc.Root),
		Trace:      &doc,
		Decisions:  rec.Decisions(),
		Counters:   rec.Counters(),
		Attr:       rec.Attribution(),
		NativeProf: rec.NativeProfile(),
	}
	if err != nil {
		r.Error = err.Error()
	}
	if resp != nil {
		r.Strategy = resp.Strategy
		if resp.Cache != nil {
			r.Cache = resp.Cache.Compile
		}
	}
	s.requests.Add(r)
}

// retryAfter derives the 429 backoff hint from the scheduler's own
// drain estimate (backlog × observed service time over the workers)
// instead of a constant, clamped to [1,30] seconds: an idle or barely
// loaded daemon invites an immediate retry, a deeply backed-up one
// pushes clients out to its real recovery horizon.
func (s *server) retryAfter() int {
	secs := int(math.Ceil(s.pool.EstimateDrain().Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// serverStats adapts the live serving-layer occupancy for the
// registry's scrape-time gauges.
func (s *server) serverStats() obs.ServerStats {
	st := s.pool.Stats()
	return obs.ServerStats{
		HTTPInflight:      s.inflight.Load(),
		QueueDepth:        st.Queued,
		QueueCapacity:     int64(st.QueueDepth),
		ActiveJobs:        st.Active,
		Workers:           int64(st.Workers),
		AvgServiceSeconds: float64(st.AvgServiceUS) / 1e6,
		JobOutcomes: map[string]int64{
			"completed": st.Completed,
			"failed":    st.Failed,
			"expired":   st.Expired,
			"rejected":  st.Rejected,
		},
	}
}

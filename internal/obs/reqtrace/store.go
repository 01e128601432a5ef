package reqtrace

import (
	"sync"
	"time"

	"gcao/internal/native/prof"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
)

// Record is everything retained about one completed request, under
// one id: an identity block joinable against client logs (request id,
// trace id), the outcome, a phase-duration summary and the full span
// tree, and the compiler's residue — the placement decision log, the
// final counters, the simulator's cost attribution and the native
// runtime profile. A Store retains or evicts a record as a whole.
type Record struct {
	ID      string `json:"id"`
	TraceID string `json:"trace_id"`
	Route   string `json:"route"`
	// Status is the HTTP status code the response carried.
	Status   int    `json:"status"`
	Error    string `json:"error,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// Cache is the compile-tier outcome (hit/miss/dedup) when known.
	Cache  string `json:"cache,omitempty"`
	UnixNS int64  `json:"unix_ns"`
	// WallUS is the request's wall time up to the record's publication;
	// Phases sums the root span's direct children by name (queue.wait,
	// compile, place, …) — the tiling discipline makes them account
	// for the wall time.
	WallUS int64            `json:"wall_us"`
	Phases map[string]int64 `json:"phases,omitempty"`
	// Slow marks records that crossed the store's latency threshold
	// (they are retained longer).
	Slow bool `json:"slow,omitempty"`
	// Trace is the full span tree.
	Trace *TraceDoc `json:"trace,omitempty"`
	// Decisions is the per-entry placement decision log ("why did the
	// compiler place it there?") and Counters the request's final
	// pipeline counters.
	Decisions []obs.Decision   `json:"decisions,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	// Attr is the simulator's cost-attribution record, present when
	// the request simulated.
	Attr *attr.Run `json:"attr,omitempty"`
	// NativeProf is the native backend's measured runtime profile,
	// present when the request executed on it.
	NativeProf *prof.NativeProfile `json:"native_prof,omitempty"`
	// HasAttr and HasNativeProf are set on summaries, which drop Attr
	// and NativeProf, to say whether the full record carries them.
	HasAttr       bool `json:"has_attr,omitempty"`
	HasNativeProf bool `json:"has_native_prof,omitempty"`
}

// Summary returns the record without its span tree, decision log,
// counters, attribution and profile, for listings.
func (r Record) Summary() Record {
	r.HasAttr, r.HasNativeProf = r.Attr != nil, r.NativeProf != nil
	r.Trace, r.Decisions, r.Counters, r.Attr, r.NativeProf = nil, nil, nil, nil, nil
	return r
}

// Store is the flight recorder of completed requests: an always-on
// bounded ring of recent records plus a second, longer-lived tier for
// requests that were slow (wall time at or above the threshold) or
// errored (status >= 400). The ring answers "what just happened"; the
// slow tier keeps the interesting records around even while healthy
// traffic churns the ring.
type Store struct {
	mu      sync.Mutex
	cap     int
	recs    []Record // oldest first
	slowCap int
	slow    []Record // oldest first
	thresh  time.Duration

	added    int64
	retained int64
}

// NewStore builds a store holding at most n recent records and nSlow
// slow/errored records; wall times at or above thresh mark a record
// slow. n <= 0 disables the main ring (slow retention still works);
// thresh <= 0 disables the slow mark (errors are still retained).
func NewStore(n, nSlow int, thresh time.Duration) *Store {
	return &Store{cap: n, slowCap: nSlow, thresh: thresh}
}

// Add retains one completed request. The record lands in the main
// ring always, and additionally in the slow tier when it was slow or
// errored.
func (s *Store) Add(rec Record) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.added++
	if s.thresh > 0 && time.Duration(rec.WallUS)*time.Microsecond >= s.thresh {
		rec.Slow = true
	}
	if s.cap > 0 {
		s.recs = push(s.recs, rec, s.cap)
	}
	if s.slowCap > 0 && (rec.Slow || rec.Status >= 400) {
		s.retained++
		s.slow = push(s.slow, rec, s.slowCap)
	}
}

// push appends rec, evicting the oldest record beyond limit. It shifts
// rather than reslices so the backing array does not pin evicted
// records' span trees and decision logs.
func push(recs []Record, rec Record, limit int) []Record {
	recs = append(recs, rec)
	if len(recs) > limit {
		copy(recs, recs[1:])
		recs = recs[:limit]
	}
	return recs
}

// Get returns the record with the given id, preferring the newest
// match; the slow tier is consulted after the main ring, so a record
// evicted from the ring but retained as slow/errored still resolves.
func (s *Store) Get(id string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, recs := range [][]Record{s.recs, s.slow} {
		for i := len(recs) - 1; i >= 0; i-- {
			if recs[i].ID == id {
				return recs[i], true
			}
		}
	}
	return Record{}, false
}

// Recent returns up to limit summaries from the main ring, newest
// first; limit <= 0 returns all of them.
func (s *Store) Recent(limit int) []Record {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return summarize(s.recs, limit)
}

// Slow returns up to limit summaries from the slow/errored tier,
// newest first.
func (s *Store) Slow(limit int) []Record {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return summarize(s.slow, limit)
}

func summarize(recs []Record, limit int) []Record {
	n := len(recs)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Record, 0, n)
	for i := len(recs) - 1; i >= len(recs)-n; i-- {
		out = append(out, recs[i].Summary())
	}
	return out
}

// StoreStats reports the store's occupancy and lifetime totals.
type StoreStats struct {
	Capacity     int   `json:"capacity"`
	SlowCapacity int   `json:"slow_capacity"`
	ThresholdUS  int64 `json:"threshold_us"`
	Recent       int   `json:"recent"`
	SlowRetained int   `json:"slow_retained"`
	Added        int64 `json:"added"`
	Retained     int64 `json:"retained"`
}

// Stats snapshots the store.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Capacity:     s.cap,
		SlowCapacity: s.slowCap,
		ThresholdUS:  s.thresh.Microseconds(),
		Recent:       len(s.recs),
		SlowRetained: len(s.slow),
		Added:        s.added,
		Retained:     s.retained,
	}
}

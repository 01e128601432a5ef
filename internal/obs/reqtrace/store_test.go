package reqtrace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gcao/internal/native/prof"
	"gcao/internal/obs"
	"gcao/internal/obs/attr"
)

func rec(id string, wallUS int64, status int) Record {
	return Record{
		ID: id, TraceID: id + "-trace", Route: "/compile",
		Status: status, WallUS: wallUS,
		Phases: map[string]int64{"compile": wallUS},
		Trace:  &TraceDoc{TraceID: id + "-trace", Root: SpanDoc{Name: "http.compile", DurUS: wallUS}},
	}
}

func TestFlightRingEvictionAndLookup(t *testing.T) {
	f := NewStore(3, 2, 100*time.Millisecond)
	for i := 0; i < 5; i++ {
		f.Add(rec(fmt.Sprintf("r%d", i), 10, 200))
	}
	if st := f.Stats(); st.Recent != 3 || st.Added != 5 || st.SlowRetained != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := f.Get("r0"); ok {
		t.Fatal("evicted record still resolvable")
	}
	got, ok := f.Get("r4")
	if !ok || got.Trace == nil || got.Trace.Root.Name != "http.compile" {
		t.Fatalf("r4 = %+v ok=%v", got, ok)
	}
	ids := f.Recent(0)
	if len(ids) != 3 || ids[0].ID != "r4" || ids[2].ID != "r2" {
		t.Fatalf("recent = %+v", ids)
	}
	if ids[0].Trace != nil {
		t.Fatal("listing leaked the full span tree")
	}
	if lim := f.Recent(2); len(lim) != 2 || lim[0].ID != "r4" {
		t.Fatalf("limited recent = %+v", lim)
	}
}

// TestFlightSlowRetention pins the two-tier contract: slow and
// errored requests survive ring churn.
func TestFlightSlowRetention(t *testing.T) {
	f := NewStore(2, 4, 50*time.Millisecond)
	f.Add(rec("slow1", 60_000, 200)) // 60ms >= 50ms threshold
	f.Add(rec("err1", 10, 429))
	for i := 0; i < 10; i++ {
		f.Add(rec(fmt.Sprintf("fast%d", i), 10, 200))
	}
	// Both are long gone from the 2-deep ring but still resolve.
	got, ok := f.Get("slow1")
	if !ok || !got.Slow {
		t.Fatalf("slow1 = %+v ok=%v", got, ok)
	}
	if got, ok := f.Get("err1"); !ok || got.Status != 429 {
		t.Fatalf("err1 = %+v ok=%v", got, ok)
	}
	slow := f.Slow(0)
	if len(slow) != 2 || slow[0].ID != "err1" || slow[1].ID != "slow1" {
		t.Fatalf("slow store = %+v", slow)
	}
	if st := f.Stats(); st.Retained != 2 || st.SlowRetained != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The slow store is bounded too.
	for i := 0; i < 10; i++ {
		f.Add(rec(fmt.Sprintf("e%d", i), 10, 500))
	}
	if st := f.Stats(); st.SlowRetained != 4 {
		t.Fatalf("slow store overgrew: %+v", st)
	}
	if _, ok := f.Get("slow1"); ok {
		t.Fatal("evicted slow record still resolvable")
	}
}

func TestFlightDisabledAndNil(t *testing.T) {
	var nilF *Store
	nilF.Add(rec("x", 1, 200))
	if _, ok := nilF.Get("x"); ok || nilF.Recent(0) != nil || nilF.Slow(0) != nil {
		t.Fatal("nil recorder not inert")
	}
	if nilF.Stats() != (StoreStats{}) {
		t.Fatal("nil stats not zero")
	}
	// cap<=0 disables the ring but errors are still retained.
	f := NewStore(0, 2, 0)
	f.Add(rec("ok", 1, 200))
	f.Add(rec("bad", 1, 500))
	if _, ok := f.Get("ok"); ok {
		t.Fatal("disabled ring retained a record")
	}
	if _, ok := f.Get("bad"); !ok {
		t.Fatal("errored record not retained")
	}
	// thresh==0 never marks slow.
	if got, _ := f.Get("bad"); got.Slow {
		t.Fatal("zero threshold marked a record slow")
	}
}

// TestFlightConcurrent exercises the store under concurrent writers
// and readers (run with -race).
func TestFlightConcurrent(t *testing.T) {
	f := NewStore(16, 8, time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				status := 200
				if i%7 == 0 {
					status = 503
				}
				f.Add(rec(id, int64(i)*100, status))
				f.Get(id)
				f.Recent(4)
				f.Slow(4)
				f.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := f.Stats(); st.Added != 800 || st.Recent != 16 || st.SlowRetained != 8 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestStoreConcurrentWraparound hammers a small ring with many
// concurrent writers so every Add past the first few evicts — the
// wraparound path — while readers race Get/Recent/Stats. Run under
// -race this pins the locking; the post-conditions pin the semantics:
// exactly cap records retained, all of them records that were actually
// written, no duplicates, and each writer's surviving records still in
// its own write order.
func TestStoreConcurrentWraparound(t *testing.T) {
	const (
		cap     = 8
		writers = 6
		perW    = 200 // 1200 adds into 8 slots: constant eviction
	)
	s := NewStore(cap, cap, 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s.Add(rec(fmt.Sprintf("w%d-%04d", w, i), 10, 200))
				if i%16 == 0 {
					_ = s.Recent(3)
					_, _ = s.Get(fmt.Sprintf("w%d-%04d", w, i))
					_ = s.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	if st := s.Stats(); st.Recent != cap || st.Added != writers*perW {
		t.Fatalf("stats = %+v, want %d retained of %d added", st, cap, writers*perW)
	}
	recent := s.Recent(0)
	if len(recent) != cap {
		t.Fatalf("Recent(0) returned %d records, want %d", len(recent), cap)
	}
	seen := map[string]bool{}
	lastSeq := map[string]int{} // per-writer sequence, walking newest → oldest
	for _, r := range recent {
		id := r.ID
		if seen[id] {
			t.Fatalf("duplicate id %q retained", id)
		}
		seen[id] = true
		var w, i int
		if _, err := fmt.Sscanf(id, "w%d-%d", &w, &i); err != nil {
			t.Fatalf("retained id %q was never written", id)
		}
		if w < 0 || w >= writers || i < 0 || i >= perW {
			t.Fatalf("retained id %q out of range", id)
		}
		key := id[:strings.IndexByte(id, '-')]
		if prev, ok := lastSeq[key]; ok && i >= prev {
			t.Fatalf("writer %s records out of order: %d then %d (newest first)", key, prev, i)
		}
		lastSeq[key] = i
		if _, ok := s.Get(id); !ok {
			t.Fatalf("retained id %q not retrievable", id)
		}
	}
	if got := s.Recent(3); len(got) != 3 || got[0].ID != recent[0].ID {
		t.Fatalf("Recent(3) = %v, want a prefix of %v", got, recent)
	}
}

// TestStoreRecentLimit pins newest-first paging deterministically.
func TestStoreRecentLimit(t *testing.T) {
	s := NewStore(4, 4, 0)
	for i := 0; i < 6; i++ { // two wraparounds
		s.Add(rec(fmt.Sprintf("r%d", i), 10, 200))
	}
	for _, tc := range []struct {
		limit int
		want  []string
	}{
		{0, []string{"r5", "r4", "r3", "r2"}},
		{-1, []string{"r5", "r4", "r3", "r2"}},
		{2, []string{"r5", "r4"}},
		{99, []string{"r5", "r4", "r3", "r2"}},
	} {
		got := s.Recent(tc.limit)
		if len(got) != len(tc.want) {
			t.Fatalf("Recent(%d) = %v, want %v", tc.limit, got, tc.want)
		}
		for i := range got {
			if got[i].ID != tc.want[i] {
				t.Fatalf("Recent(%d) = %v, want %v", tc.limit, got, tc.want)
			}
		}
	}
	if _, ok := s.Get("r0"); ok {
		t.Fatal("evicted record r0 still retrievable")
	}
}

// TestStoreBoundsAndLookup pins that a record carries its decision log
// and counters through the store, that Get returns the newest of
// several records sharing an id, and that summaries drop the heavy
// fields but say which ones the full record has.
func TestStoreBoundsAndLookup(t *testing.T) {
	s := NewStore(3, 3, 0)
	for i := 0; i < 5; i++ {
		r := rec("dup", 10, 200)
		r.Decisions = []obs.Decision{{Entry: i, SubsumedBy: -1, Group: -1}}
		r.Counters = map[string]int64{"n": int64(i)}
		s.Add(r)
	}
	got, ok := s.Get("dup")
	if !ok || len(got.Decisions) != 1 || got.Decisions[0].Entry != 4 || got.Counters["n"] != 4 {
		t.Fatalf("Get(dup) = %+v ok=%v, want the newest (entry 4)", got, ok)
	}
	if st := s.Stats(); st.Recent != 3 {
		t.Fatalf("stats = %+v", st)
	}

	withAttr := rec("sim", 10, 200)
	withAttr.Attr = &attr.Run{}
	withAttr.NativeProf = &prof.NativeProfile{Procs: 4}
	s.Add(withAttr)
	sum := s.Recent(1)[0]
	if sum.ID != "sim" || !sum.HasAttr || !sum.HasNativeProf {
		t.Fatalf("summary = %+v, want has_attr and has_native_prof", sum)
	}
	if sum.Attr != nil || sum.NativeProf != nil || sum.Trace != nil || sum.Decisions != nil || sum.Counters != nil {
		t.Fatalf("summary kept a heavy field: %+v", sum)
	}
	if full, _ := s.Get("sim"); full.Attr == nil || full.NativeProf == nil || full.HasAttr {
		t.Fatalf("full record = %+v", full)
	}
}

// TestStoreErroredKeepsDecisions pins that the two tiers evict whole
// records: an errored request's decision log and attribution survive
// healthy traffic churning the main ring, together with its trace.
func TestStoreErroredKeepsDecisions(t *testing.T) {
	s := NewStore(4, 4, time.Second)
	bad := rec("bad", 10, 400)
	bad.Error = "simulate: out of bounds"
	bad.Decisions = []obs.Decision{{Entry: 7, SubsumedBy: -1, Group: 2}}
	bad.Attr = &attr.Run{Procs: 4}
	s.Add(bad)
	for i := 0; i < 20; i++ {
		s.Add(rec(fmt.Sprintf("ok%d", i), 10, 200))
	}
	for _, r := range s.Recent(0) {
		if r.ID == "bad" {
			t.Fatal("errored record still in the churned main ring")
		}
	}
	got, ok := s.Get("bad")
	if !ok {
		t.Fatal("errored record lost to ring churn")
	}
	if len(got.Decisions) != 1 || got.Decisions[0].Entry != 7 || got.Attr == nil || got.Attr.Procs != 4 {
		t.Fatalf("errored record lost its decision log or attribution: %+v", got)
	}
	if got.Trace == nil || got.Error == "" || got.Phases["compile"] == 0 {
		t.Fatalf("errored record lost its trace or outcome: %+v", got)
	}
}

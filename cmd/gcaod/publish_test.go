package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcao/internal/obs/reqtrace"
)

// postHeaders posts a compile request and returns as soon as the
// response headers arrive, without reading the body: the server may
// still be writing it.
func postHeaders(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/compile", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// fetchNow resolves a request id at /debug/requests/{id} once, with no
// retry: the record must already be there when the response arrived.
func fetchNow(t *testing.T, url, id string, wantStatus int) reqtrace.Record {
	t.Helper()
	var rec reqtrace.Record
	if code := getJSON(t, url+"/debug/requests/"+id, &rec); code != http.StatusOK {
		t.Fatalf("record %s not published before its response: status %d", id, code)
	}
	if rec.ID != id || rec.Status != wantStatus {
		t.Fatalf("record %s: id %q status %d, want status %d", id, rec.ID, rec.Status, wantStatus)
	}
	if len(rec.Phases) == 0 || rec.Trace == nil || rec.Trace.Root.Name == "" {
		t.Fatalf("record %s lacks its phases or span tree: %+v", id, rec)
	}
	return rec
}

// TestReadYourWrites pins the publish order: on every path — a 200, a
// 400 from a source that does not compile, a 400 from a run-time
// fault, a 413, and each item of a batch — the id the response carries
// resolves immediately to one document holding the phases, the span
// tree and, where the request reached placement, the decision log.
func TestReadYourWrites(t *testing.T) {
	s := newServer(serverConfig{maxBody: 64 << 10, logW: io.Discard})
	defer s.close()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for round := 0; round < 3; round++ {
		// 200: a fresh binding each round, so the placement runs and
		// logs its decisions.
		resp := postHeaders(t, ts.URL, map[string]any{
			"source": stencilSrc, "params": map[string]int{"n": 8 + round, "steps": 1}, "procs": 4,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile status = %d", resp.StatusCode)
		}
		if rec := fetchNow(t, ts.URL, resp.Header.Get("X-Request-Id"), http.StatusOK); len(rec.Decisions) == 0 || len(rec.Counters) == 0 {
			t.Fatalf("200 record lacks its decision log: %+v", rec)
		}

		// 400: the source does not compile.
		resp = postHeaders(t, ts.URL, map[string]any{"source": "not hpf at all", "procs": 4})
		if rec := fetchNow(t, ts.URL, resp.Header.Get("X-Request-Id"), http.StatusBadRequest); rec.Error == "" {
			t.Fatalf("400 record lacks its error: %+v", rec)
		}

		// 400: the program compiles and places, then faults at run time.
		resp = postHeaders(t, ts.URL, map[string]any{
			"source": oobSrc, "params": map[string]int{"n": 16 + round}, "procs": 4, "simulate": true,
		})
		rec := fetchNow(t, ts.URL, resp.Header.Get("X-Request-Id"), http.StatusBadRequest)
		if len(rec.Decisions) == 0 || !strings.Contains(rec.Error, "out of bounds") {
			t.Fatalf("run-time 400 record lacks its decision log or error: %+v", rec)
		}

		// 413: the body is over the limit.
		resp = postHeaders(t, ts.URL, map[string]any{"source": strings.Repeat("x", 128<<10)})
		fetchNow(t, ts.URL, resp.Header.Get("X-Request-Id"), http.StatusRequestEntityTooLarge)

		// Batch: every item, by the req_id the item reports.
		resp, bout := postBatch(t, ts, []map[string]any{
			{"source": stencilSrc, "params": map[string]int{"n": 12 + round, "steps": 1}, "procs": 4},
			{"source": stencilSrc, "params": map[string]int{"n": 20 + round, "steps": 1}, "procs": 4},
		})
		if resp.StatusCode != http.StatusOK || bout.Succeeded != 2 {
			t.Fatalf("batch status = %d, succeeded = %d", resp.StatusCode, bout.Succeeded)
		}
		for _, item := range bout.Items {
			if rec := fetchNow(t, ts.URL, item.ReqID, http.StatusOK); len(rec.Decisions) == 0 {
				t.Fatalf("batch item record lacks its decision log: %+v", rec)
			}
		}
	}
}

// oobSrc reads past the end of a block-distributed array: it compiles
// and places, and faults only when executed.
const oobSrc = `
routine oob(n)
real a(1:n), b(1:n)
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
enddo
do i = 1, n
b(i) = a(n+5)
enddo
end
`

// TestOutOfBoundsIs400 pins that a program's run-time subscript fault
// is a client error on both backends, and that the daemon serves the
// next request normally.
func TestOutOfBoundsIs400(t *testing.T) {
	_, ts := testServer(t)
	for _, backend := range []string{"sim", "native"} {
		resp, _ := postCompile(t, ts, map[string]any{
			"source": oobSrc, "params": map[string]int{"n": 32}, "procs": 4,
			"simulate": true, "backend": backend,
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: out-of-bounds status = %d, want 400", backend, resp.StatusCode)
		}
		resp, out := postCompile(t, ts, map[string]any{
			"source": stencilSrc, "params": map[string]int{"n": 8, "steps": 1}, "procs": 4,
			"simulate": true, "backend": backend,
		})
		if resp.StatusCode != http.StatusOK || out.Simulate == nil {
			t.Fatalf("%s: next compile status = %d (%+v)", backend, resp.StatusCode, out)
		}
	}
}

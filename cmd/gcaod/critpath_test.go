package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gcao"
	"gcao/internal/obs/reqtrace"
)

// getJSON fetches a URL and decodes its body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestCritPathEndpoint: a simulated compile leaves an attribution
// record behind; the /debug/requests listing flags it and
// /debug/requests/{id}/critpath serves the analyzed blame report, with
// ?g/?L overriding the BSP cost model.
func TestCritPathEndpoint(t *testing.T) {
	_, ts := testServer(t)
	// One plain compile (no attribution) and one simulated compile.
	respPlain, outPlain := postCompile(t, ts, map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 8, "steps": 1},
		"procs":  4,
	})
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain compile status = %d", respPlain.StatusCode)
	}
	respSim, outSim := postCompile(t, ts, map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 8, "steps": 2},
		"procs":    4,
		"simulate": true,
	})
	if respSim.StatusCode != http.StatusOK {
		t.Fatalf("simulated compile status = %d", respSim.StatusCode)
	}

	// The listing holds both requests and flags only the simulated
	// one as carrying an attribution record.
	var list struct {
		Recent []reqtrace.Record `json:"recent"`
	}
	if code := getJSON(t, ts.URL+"/debug/requests", &list); code != http.StatusOK {
		t.Fatalf("request list status = %d", code)
	}
	if len(list.Recent) != 2 || list.Recent[0].ID != outSim.ReqID || !list.Recent[0].HasAttr ||
		list.Recent[1].ID != outPlain.ReqID || list.Recent[1].HasAttr {
		t.Fatalf("request list = %+v (sim req %s)", list.Recent, outSim.ReqID)
	}

	var detail struct {
		ReqID  string           `json:"req_id"`
		Report *gcao.AttrReport `json:"report"`
	}
	if code := getJSON(t, ts.URL+"/debug/requests/"+outSim.ReqID+"/critpath", &detail); code != http.StatusOK {
		t.Fatalf("critpath detail status = %d", code)
	}
	rep := detail.Report
	if detail.ReqID != outSim.ReqID || rep == nil {
		t.Fatalf("critpath detail = %+v", detail)
	}
	if rep.TotalSteps == 0 || rep.TotalBytes == 0 || len(rep.Sites) == 0 || len(rep.CriticalPath) == 0 {
		t.Fatalf("report empty: %+v", rep)
	}
	if rep.CriticalSec <= 0 || rep.CriticalSec > rep.SerialSec {
		t.Fatalf("critical %g vs serial %g", rep.CriticalSec, rep.SerialSec)
	}
	if !strings.Contains(rep.Sites[0].Site, "/g") {
		t.Fatalf("top site %q is not a placement site id", rep.Sites[0].Site)
	}

	// Cost-model overrides flow into the report: with g=0 and a huge L
	// every superstep costs L, so the critical path cost is steps*L.
	var cheap struct {
		Report *gcao.AttrReport `json:"report"`
	}
	url := fmt.Sprintf("%s/debug/requests/%s/critpath?g=0&L=1", ts.URL, outSim.ReqID)
	if code := getJSON(t, url, &cheap); code != http.StatusOK {
		t.Fatalf("override status = %d", code)
	}
	if cheap.Report.Model.GSecPerByte != 0 || cheap.Report.Model.LSec != 1 {
		t.Fatalf("override model = %+v", cheap.Report.Model)
	}
	if got := cheap.Report.CriticalSec; got != float64(len(cheap.Report.CriticalPath)) {
		t.Fatalf("with g=0, L=1: critical = %g, path length %d", got, len(cheap.Report.CriticalPath))
	}

	// Error paths: bad model knob, non-simulated request, unknown id.
	if code := getJSON(t, ts.URL+"/debug/requests/"+outSim.ReqID+"/critpath?g=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad g status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/requests/"+outSim.ReqID+"/critpath?L=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("negative L status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/requests/"+outPlain.ReqID+"/critpath", nil); code != http.StatusNotFound {
		t.Fatalf("non-simulated request status = %d", code)
	}
	if code := getJSON(t, ts.URL+"/debug/requests/nope/critpath", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", code)
	}
}

// TestDecisionListLimit pins the ?limit=N paging of /debug/requests:
// default bounded, explicit limit honored newest first, limit=0
// returns everything retained, garbage is a 400.
func TestDecisionListLimit(t *testing.T) {
	s, _ := testServer(t)
	// Seed the store directly: three records suffice to see paging.
	for _, id := range []string{"r1", "r2", "r3"} {
		s.requests.Add(reqtrace.Record{ID: id, Status: http.StatusOK})
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	ids := func(query string) []string {
		t.Helper()
		var list struct {
			Recent []reqtrace.Record `json:"recent"`
		}
		if code := getJSON(t, ts.URL+"/debug/requests"+query, &list); code != http.StatusOK {
			t.Fatalf("list%s status = %d", query, code)
		}
		var out []string
		for _, r := range list.Recent {
			out = append(out, r.ID)
		}
		return out
	}
	if got := ids(""); len(got) != 3 || got[0] != "r3" {
		t.Fatalf("default list = %v", got)
	}
	if got := ids("?limit=2"); len(got) != 2 || got[0] != "r3" || got[1] != "r2" {
		t.Fatalf("limit=2 list = %v", got)
	}
	if got := ids("?limit=0"); len(got) != 3 {
		t.Fatalf("limit=0 list = %v", got)
	}
	if code := getJSON(t, ts.URL+"/debug/requests?limit=two", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit status = %d", code)
	}
}

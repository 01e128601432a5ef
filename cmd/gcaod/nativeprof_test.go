package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"gcao/internal/obs/reqtrace"
)

// TestNativeProfEndpoint: a backend:"native" compile is profiled end
// to end — the response carries the skew/blocked/calibration headline,
// the /debug/requests listing flags the request, its record at
// /debug/requests/{id} carries the profile, and the profiler metric
// families reach /metrics. A plain request's record has no profile.
func TestNativeProfEndpoint(t *testing.T) {
	_, ts := testServer(t)
	respPlain, outPlain := postCompile(t, ts, map[string]any{
		"source": stencilSrc,
		"params": map[string]int{"n": 12, "steps": 2},
		"procs":  4,
	})
	if respPlain.StatusCode != http.StatusOK {
		t.Fatalf("plain compile status = %d", respPlain.StatusCode)
	}
	respNat, outNat := postCompile(t, ts, map[string]any{
		"source":   stencilSrc,
		"params":   map[string]int{"n": 12, "steps": 3},
		"procs":    4,
		"strategy": "comb",
		"simulate": true,
		"backend":  "native",
	})
	if respNat.StatusCode != http.StatusOK {
		t.Fatalf("native compile status = %d", respNat.StatusCode)
	}
	if outNat.Native == nil {
		t.Fatal("native doc missing")
	}
	if outNat.Native.SkewRatio < 1 {
		t.Fatalf("skew ratio = %g, want >= 1 on a profiled run", outNat.Native.SkewRatio)
	}
	if outNat.Native.BlockedSeconds <= 0 {
		t.Fatalf("blocked seconds = %g, want > 0 on a communicating run", outNat.Native.BlockedSeconds)
	}
	if outNat.Metrics.NativeProf == nil {
		t.Fatal("metrics doc lost the native profile")
	}

	// The listing flags only the profiled request.
	var list struct {
		Recent []reqtrace.Record `json:"recent"`
	}
	if code := getJSON(t, ts.URL+"/debug/requests", &list); code != http.StatusOK {
		t.Fatalf("request list status = %d", code)
	}
	if len(list.Recent) != 2 || list.Recent[0].ID != outNat.ReqID || !list.Recent[0].HasNativeProf ||
		list.Recent[1].HasNativeProf {
		t.Fatalf("request list = %+v (native req %s)", list.Recent, outNat.ReqID)
	}

	var rec reqtrace.Record
	if code := getJSON(t, ts.URL+"/debug/requests/"+outNat.ReqID, &rec); code != http.StatusOK {
		t.Fatalf("native record status = %d", code)
	}
	np := rec.NativeProf
	if np == nil {
		t.Fatalf("native record carries no profile: %+v", rec)
	}
	if np.Procs != 4 || len(np.Steps) == 0 || len(np.ProcTotals) != 4 {
		t.Fatalf("profile shape: procs %d, %d steps, %d proc totals",
			np.Procs, len(np.Steps), len(np.ProcTotals))
	}
	if np.SkewRatio != outNat.Native.SkewRatio {
		t.Fatalf("retained skew %g != response skew %g", np.SkewRatio, outNat.Native.SkewRatio)
	}

	// The profiler families reach the scrape.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`gcao_native_skew_ratio{version="comb"}`,
		`gcao_native_blocked_seconds_total{version="comb"}`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("%s missing from /metrics", want)
		}
	}

	var plain reqtrace.Record
	if code := getJSON(t, ts.URL+"/debug/requests/"+outPlain.ReqID, &plain); code != http.StatusOK {
		t.Fatalf("plain record status = %d", code)
	}
	if plain.NativeProf != nil {
		t.Fatal("unprofiled request's record carries a native profile")
	}
}

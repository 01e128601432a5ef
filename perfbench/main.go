// Command perfbench is the repository's benchmark. It runs one named
// workload with a seed for a fixed time, checks every output, and
// prints each metric by name with its unit; the last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics.
//
// Workloads:
//
//	compile  closed loop, one client: compile and place inputs, no execution
//	execute  closed loop, one client: run 12 placements natively and on the simulator
//	serve    closed loop, one client: requests to a gcaod subprocess on one CPU
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records a span around every call into a layer, writes the spans
// as Chrome trace_event JSON, prints a per-layer self-time table and
// reports the per-layer metrics instead. See README.md.
//
// Usage (from the repository root; run.sh builds the binaries):
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// options is one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	gcaod    string // gcaod binary, for serve
	exp      *expected
}

// metric is one reported number. Samples is the count a timing was
// taken over (0 for counts and ratios).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report is a workload's outcome.
type report struct {
	attempted, failed int
	metrics           []metric
	errs              []string // the first few failure messages
}

const maxReportedErrs = 5

func (r *report) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// failChecks counts each set-up check that failed as a failed
// operation.
func (r *report) failChecks(errs []error) {
	for _, e := range errs {
		r.attempted++
		r.fail(e)
	}
}

// fail counts one failed or wrong operation.
func (r *report) fail(err error) {
	r.failed++
	if len(r.errs) < maxReportedErrs {
		r.errs = append(r.errs, err.Error())
	}
}

func main() {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: compile, execute or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.IntVar(&seconds, "seconds", 30, "seconds one run measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.gcaod, "gcaod", "", "gcaod binary (serve workload)")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.traced = trace == 1
	if seconds < 1 || (trace != 0 && trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}

	exp, err := loadExpected()
	if err != nil {
		fatalf("%v", err)
	}
	o.exp = exp

	var rep *report
	switch o.workload {
	case "compile":
		rep, err = runCompile(&o)
	case "execute":
		rep, err = runExecute(&o)
	case "serve":
		rep, err = runServe(&o)
	default:
		fatalf("unknown -workload %q (want compile, execute or serve)", o.workload)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	want := endToEnd
	if o.traced {
		want = perLayer
	}
	if err := rep.checkNames(want); err != nil {
		// A run that failed before measuring prints its failures only.
		for _, e := range rep.errs {
			fmt.Fprintf(os.Stderr, "FAIL: %s\n", e)
		}
		fatalf("%s: %v", o.workload, err)
	}
	emit(&o, rep)
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// checkNames verifies that the report holds exactly the listed
// metrics with their units, as BENCHMARK.json declares them.
func (r *report) checkNames(want []struct{ name, unit string }) error {
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(r.metrics), len(want))
	}
	units := map[string]string{}
	for _, m := range r.metrics {
		units[m.Name] = m.Unit
	}
	for _, w := range want {
		if u, ok := units[w.name]; !ok || u != w.unit {
			return fmt.Errorf("metric %s (%s) not reported with that unit", w.name, w.unit)
		}
	}
	return nil
}

// emit prints the host stamp, every metric with its unit and sample
// count, and the result object as the last line.
func emit(o *options, rep *report) {
	fmt.Printf("host: %s\n", hostFacts())
	fmt.Printf("workload=%s seed=%d seconds=%v traced=%t\n", o.workload, o.seed, o.seconds.Seconds(), o.traced)
	for _, e := range rep.errs {
		fmt.Printf("FAIL: %s\n", e)
	}
	errRatio := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("%-34s %14.6g %s (attempted=%d failed=%d)\n", "error_ratio", errRatio, "ratio", rep.attempted, rep.failed)
	out := map[string]any{}
	for _, m := range rep.metrics {
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf(" (n=%d)", m.Samples)
		}
		fmt.Printf("%-34s %14.6g %s%s\n", m.Name, m.Value, m.Unit, samples)
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// hostFacts stamps a result with what its numbers depend on.
func hostFacts() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s rev=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
}

// gitRev is the VCS revision stamped into the binary at build time, or
// "unknown" when it was built outside a repository.
func gitRev() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
	}
	return rev + dirty
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// peakRSSMiB reads a process's peak resident set size (VmHWM) from
// /proc; pid "self" is this process.
func peakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %g kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS resets a process's peak RSS to its current RSS (Linux
// clear_refs mode 5). Failure only leaves the earlier peak in place.
func resetPeakRSS(pid string) {
	_ = os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

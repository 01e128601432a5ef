package main

import "fmt"

// endToEnd lists the end-to-end metrics every untraced run reports,
// with their units. An operation is one compile-and-place of an input
// (compile), one run of one placement on one backend (execute), or one
// request (serve).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"op_ms_p50", "ms"},
	{"op_ms_p98", "ms"},
	{"good_ops_per_s", "op/s"},
}

// execPlacements names the execute workload's twelve placements,
// bench-routine.version, in a fixed order.
var execPlacements = func() []string {
	var out []string
	for _, r := range []string{"shallow-main", "gravity-main", "trimesh-normdot", "trimesh-gauss", "hydflo-flux", "hydflo-hydro"} {
		out = append(out, r+".orig", r+".comb")
	}
	return out
}()

// gcaodPhases are the pipeline phases whose gcao_phase_seconds the
// serve workload reports; place, simulate and native sum their
// per-version series.
var gcaodPhases = []string{"parse", "inline", "sem", "scalarize", "cfg", "dom", "ssa", "dep",
	"entries", "earliest-latest", "place", "simulate", "native"}

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A layer the workload leaves idle reads 0.
var perLayer = func() []struct{ name, unit string } {
	type m = struct{ name, unit string }
	out := []m{
		// front end
		{"parser.ms", "ms"}, {"parser.allocs", "count"}, {"inline.ms", "ms"},
		{"sem.ms", "ms"}, {"scalarize.ms", "ms"}, {"scalarize.stmts", "count"},
		// analysis
		{"cfg.ms", "ms"}, {"dom.ms", "ms"}, {"ssa.ms", "ms"}, {"dep.ms", "ms"},
		{"core.analyze.self_ms", "ms"}, {"core.analyze.allocs", "count"}, {"core.entries", "count"},
		// placement
		{"core.place.orig.ms", "ms"}, {"core.place.nored.ms", "ms"}, {"core.place.comb.ms", "ms"},
		{"core.place.comb.allocs", "count"},
		{"core.place.orig.groups", "count"}, {"core.place.nored.groups", "count"}, {"core.place.comb.groups", "count"},
		// estimate
		{"spmd.estimate.ms", "ms"}, {"bound.ms", "ms"},
		// simulate
		{"spmd.run.ms", "ms"}, {"spmd.run.allocs", "count"},
	}
	for _, p := range execPlacements {
		out = append(out, m{"spmd.run." + p + ".ms", "ms"})
	}
	// native
	out = append(out, m{"native.setup.ms", "ms"}, m{"native.run.ms", "ms"},
		m{"native.blocked_share", "ratio"}, m{"native.messages", "count"},
		m{"native.wire_bytes", "bytes"}, m{"native.allocs", "count"})
	for _, p := range execPlacements {
		out = append(out, m{"native.run." + p + ".ms", "ms"})
	}
	// gcaod
	out = append(out, m{"gcaod.queue_wait.ms", "ms"}, m{"gcaod.http.ms", "ms"})
	for _, ph := range gcaodPhases {
		out = append(out, m{"gcaod.phase." + ph + ".ms", "ms"})
	}
	out = append(out,
		m{"cache.compile.hit_ratio", "ratio"}, m{"cache.place.hit_ratio", "ratio"},
		m{"http.resp_bytes.warm", "bytes"}, m{"http.resp_bytes.cold", "bytes"},
		m{"serve.warm.ms_p50", "ms"}, m{"serve.cold.ms_p50", "ms"}, m{"serve.exec.ms_p50", "ms"},
		m{"gcaod.count_drift", "count"},
		// tracing itself
		m{"trace.untraced_ms_p50", "ms"}, m{"trace.traced_ms_p50", "ms"},
		m{"trace.layer_sum_ms_p50", "ms"}, m{"trace.overhead_ratio", "ratio"})
	return out
}()

// layerValues collects a traced run's per-layer numbers by name.
type layerValues map[string]float64

// set records a per-layer value; the name must be in perLayer.
func (lv layerValues) set(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			lv[name] = v
			return
		}
	}
	panic(fmt.Sprintf("perfbench: %q is not a per-layer metric", name))
}

// addTo appends every per-layer metric to the report, 0 where unset.
func (lv layerValues) addTo(r *report) {
	for _, m := range perLayer {
		r.add(m.name, lv[m.name], m.unit, 0)
	}
}

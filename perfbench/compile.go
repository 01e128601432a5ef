package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"gcao"
	"gcao/internal/ast"
	"gcao/internal/bench"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/core/bound"
	"gcao/internal/dep"
	"gcao/internal/dom"
	"gcao/internal/inline"
	"gcao/internal/parser"
	"gcao/internal/scalarize"
	"gcao/internal/sem"
	"gcao/internal/spmd"
	"gcao/internal/ssa"
)

// compileInput is one input of the compile workload.
type compileInput struct {
	name    string
	source  string
	main    string // entry routine of a multi-routine program, else ""
	params  map[string]int
	procs   int
	machine gcao.Machine
	fig10   string // routine name when the input is a Fig. 10(a) row
}

// genPrograms is how many generated programs the compile workload
// compiles beside the paper's routines: every statement count from
// minGenStmts to maxGenStmts three times, once with the subroutine.
const genPrograms = 3 * (maxGenStmts - minGenStmts + 1)

// compileInputs builds the compile workload's inputs: the six
// Fig. 10(a) routines at DefaultN on P=25 and P=8, every (n, P,
// machine) point of the Fig. 10 charts, and genPrograms generated
// programs. Errors are pinned sources whose hash changed.
func compileInputs(exp *expected) ([]compileInput, []error) {
	progs, errs := exp.pinnedPrograms()
	var ins []compileInput
	for _, procs := range []int{25, 8} {
		for _, pr := range progs {
			ins = append(ins, compileInput{
				name:   fmt.Sprintf("fig10a/%s/P%d", routineName(pr), procs),
				source: pr.Source, params: pr.Params(pr.DefaultN),
				procs: procs, machine: machineFor(procs), fig10: routineName(pr),
			})
		}
	}
	for _, ch := range bench.ChartSpecs() {
		pr, err := bench.ByName(ch.Bench, ch.Routines[0])
		if err != nil {
			errs = append(errs, err)
			continue
		}
		m, err := gcao.MachineByName(ch.Machine)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for _, n := range ch.Sizes {
			ins = append(ins, compileInput{
				name:   fmt.Sprintf("chart%s/%s/n%d", ch.ID, routineName(pr), n),
				source: pr.Source, params: pr.Params(n), procs: ch.Procs, machine: m,
			})
		}
	}
	for k := 0; k < genPrograms; k++ {
		ins = append(ins, genInput(k))
	}
	return ins, errs
}

// genInput is the k-th generated program at its workload size. The
// statement counts, subroutine use and sizes cycle through fixed
// ranges. The programs are the same for every seed, which orders the
// passes over them: with programs per seed, their contents alone moved
// a run's median operation time by a tenth.
func genInput(k int) compileInput {
	counts := maxGenStmts - minGenStmts + 1
	g := generate(int64(k), minGenStmts+k%counts, (k/counts)%3 == 0)
	sz := genSizes[k%len(genSizes)]
	return compileInput{
		name:   fmt.Sprintf("gen/%d/%dstmts", k, g.Stmts),
		source: g.Source, main: g.Main,
		params: map[string]int{"n": sz.n, "steps": 2},
		procs:  sz.procs, machine: machineFor(sz.procs),
	}
}

// compileOut is what one operation produced, for the checks.
type compileOut struct {
	placed [3]*gcao.Placed
	gap    [3]gcao.OptimalityGap
}

// compileOp is one untraced operation: compile (inlining when the input
// has a subroutine), place under orig, nored and comb, and relate each
// placement's estimate to the lower bound on the input's machine.
func compileOp(in *compileInput) (*compileOut, error) {
	cfg := gcao.Config{Params: in.params, Procs: in.procs}
	var c *gcao.Compilation
	var err error
	if in.main != "" {
		c, err = gcao.CompileProgram(in.source, in.main, cfg)
	} else {
		c, err = gcao.Compile(in.source, cfg)
	}
	if err != nil {
		return nil, err
	}
	out := &compileOut{}
	for i, s := range strategies {
		if out.placed[i], err = c.Place(s); err != nil {
			return nil, err
		}
		if out.gap[i], err = out.placed[i].OptimalityGap(in.machine); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkCompile verifies one operation's outputs: the lower bound never
// exceeds a placement's estimated bytes, comb never estimates more
// bytes than orig, and Fig. 10(a) inputs place exactly the expected
// counts.
func checkCompile(in *compileInput, out *compileOut, exp *expected) error {
	const slack = 1e-9
	for i, g := range out.gap {
		if g.BoundBytes > g.ActualBytes*(1+slack) {
			return fmt.Errorf("%s %s: bound %g bytes exceeds estimate %g", in.name, strategies[i], g.BoundBytes, g.ActualBytes)
		}
	}
	if orig, comb := out.gap[0].ActualBytes, out.gap[2].ActualBytes; comb > orig*(1+slack) {
		return fmt.Errorf("%s: comb estimates %g bytes, more than orig's %g", in.name, comb, orig)
	}
	if in.fig10 != "" {
		for i, s := range strategies {
			if err := exp.checkFig10(in.fig10, in.procs, s, out.placed[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// compileSetup builds the inputs and checks the pinned Fig. 10(a)
// routines' static counts before anything is timed.
func compileSetup(o *options) ([]compileInput, []error) {
	ins, errs := compileInputs(o.exp)
	for i := range ins {
		if ins[i].fig10 == "" {
			continue
		}
		out, err := compileOp(&ins[i])
		if err == nil {
			err = checkCompile(&ins[i], out, o.exp)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return ins, errs
}

const setupReps = 5

// compileCalEvery is how many operations the compile loop runs per
// burst of reference parses: about 2% of a pass's time goes to them.
const compileCalEvery = 32

func runCompile(o *options) (*report, error) {
	type setupOut struct {
		ins  []compileInput
		errs []error
	}
	su, setupS, err := medianSetup(setupReps, func() (setupOut, error) {
		ins, errs := compileSetup(o)
		return setupOut{ins, errs}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.failChecks(su.errs)
	rng := rand.New(rand.NewSource(o.seed))
	if o.traced {
		return rep, traceCompile(o, su.ins, rng, rep)
	}

	// Whole passes over the inputs in a seeded order, so every run
	// measures the same mix. The median and throughput are taken per
	// pass and reported as medians over the passes, so a pass slowed by
	// other load on the host moves them little.
	var w windows
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < o.seconds; pass++ {
		w.begin()
		for k, i := range rng.Perm(len(su.ins)) {
			if k%compileCalEvery == 0 {
				w.calibrate(3)
			}
			in := &su.ins[i]
			rep.attempted++
			t0 := time.Now()
			out, err := compileOp(in)
			d := time.Since(t0)
			if err == nil {
				err = checkCompile(in, out, o.exp)
			}
			if err != nil {
				rep.fail(fmt.Errorf("%s: %w", in.name, err))
			}
			w.op(d, err == nil)
		}
		if err := w.end(); err != nil {
			return nil, err
		}
	}
	rep.add("setup_s", setupS, "s", setupReps)
	rep.add("peak_rss_mb", median(w.peaks), "MiB", len(w.peaks))
	w.report(rep)
	return rep, nil
}

// layerSample is one traced operation's time and work per layer.
type layerSample struct {
	parser, inline, sem, analyze            time.Duration
	scalarize, cfg, dom, ssa, dep           time.Duration
	place                                   [3]time.Duration
	estimate, bound                         time.Duration
	parserAllocs, analyzeAllocs, combAllocs uint64
	entries, stmts                          int
	groups                                  [3]int
	traced                                  time.Duration // the whole traced operation
}

// pipeline is the sum of the layer spans on the operation's path; the
// sub-layer calls are timed apart, so they are not part of it.
func (s *layerSample) pipeline() time.Duration {
	return s.parser + s.inline + s.sem + s.analyze + s.place[0] + s.place[1] + s.place[2] + s.estimate + s.bound
}

// allocSamples reads the cumulative heap allocation counts. Unlike
// runtime.ReadMemStats it does not stop the world, so it can sit on an
// operation's path; the runtime publishes the counts a span of objects
// at a time, so a single call's count is approximate and only the mean
// over many calls is reported.
var allocSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}

func mallocs() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64()
}

// tracedCompileOp runs one operation stage by stage, each stage's
// result feeding the next, with a span around every call into a layer.
// It then times the analysis sub-layers on the same input, apart from
// the operation.
func tracedCompileOp(tr *tracer, op int, in *compileInput) (*layerSample, *compileOut, error) {
	s := &layerSample{}
	timed := func(name string, parent int, into *time.Duration, f func() error) error {
		id := tr.begin(name, op, parent)
		err := f()
		*into += tr.end(id)
		return err
	}
	root := tr.begin("compile.op", op, -1)
	var (
		r    *ast.Routine
		prog *ast.Program
		u    *sem.Unit
		a    *core.Analysis
		err  error
	)
	m0 := mallocs()
	if in.main != "" {
		err = timed("parser", root, &s.parser, func() (e error) { prog, e = parser.Parse(in.source); return })
		s.parserAllocs = mallocs() - m0
		if err == nil {
			err = timed("inline", root, &s.inline, func() (e error) { r, e = inline.Flatten(prog, in.main); return })
		}
	} else {
		err = timed("parser", root, &s.parser, func() (e error) { r, e = parser.ParseRoutine(in.source); return })
		s.parserAllocs = mallocs() - m0
	}
	if err == nil {
		err = timed("sem", root, &s.sem, func() (e error) {
			u, e = sem.Analyze(r, in.params, sem.Options{Procs: in.procs})
			return
		})
	}
	if err == nil {
		m0 = mallocs()
		err = timed("core.analyze", root, &s.analyze, func() (e error) { a, e = core.NewAnalysis(u); return })
		s.analyzeAllocs = mallocs() - m0
	}
	out := &compileOut{}
	versions := []core.Version{core.VersionOrig, core.VersionRedund, core.VersionCombine}
	for i := 0; err == nil && i < len(versions); i++ {
		var res *core.Result
		m0 = mallocs()
		err = timed("core.place."+versions[i].String(), root, &s.place[i], func() (e error) {
			res, e = a.Place(core.Options{Version: versions[i]})
			return
		})
		if i == 2 {
			s.combAllocs = mallocs() - m0
		}
		if err != nil {
			break
		}
		s.groups[i] = len(res.Groups)
		var cost spmd.Cost
		err = timed("spmd.estimate", root, &s.estimate, func() (e error) { cost, e = spmd.Estimate(res, in.machine); return })
		var b bound.Bound
		_ = timed("bound", root, &s.bound, func() error { b = bound.Compute(a); return nil })
		out.placed[i] = &gcao.Placed{Result: res}
		out.gap[i] = gcao.OptimalityGap{BoundBytes: b.TotalBytes, ActualBytes: cost.Bytes}
	}
	s.traced = tr.end(root)
	if err != nil {
		return nil, nil, err
	}
	s.entries = len(a.Entries)

	// The five sub-layers core.NewAnalysis calls, timed on the same
	// unit outside the operation.
	side := tr.begin("core.analyze.sublayers", op, -1)
	var scal *scalarize.Result
	var g *cfg.Graph
	var t *dom.Tree
	err = timed("scalarize", side, &s.scalarize, func() (e error) { scal, e = scalarize.Scalarize(u); return })
	if err == nil {
		s.stmts = countStmts(scal.Body)
		err = timed("cfg", side, &s.cfg, func() error { g = cfg.Build(scal.Body); return g.Validate() })
	}
	if err == nil {
		_ = timed("dom", side, &s.dom, func() error { t = dom.New(g); return nil })
		err = timed("ssa", side, &s.ssa, func() error {
			return ssa.Build(g, t, func(name string) bool { _, ok := u.Arrays[name]; return ok }).Validate()
		})
	}
	if err == nil {
		_ = timed("dep", side, &s.dep, func() error { dep.New(u); return nil })
	}
	tr.end(side)
	return s, out, err
}

// countStmts counts statements at every nesting depth.
func countStmts(body []ast.Stmt) int {
	n := 0
	for _, st := range body {
		n++
		switch st := st.(type) {
		case *ast.DoStmt:
			n += countStmts(st.Body)
		case *ast.IfStmt:
			n += countStmts(st.Then) + countStmts(st.Else)
		}
	}
	return n
}

// traceCompile is the traced compile run: each input runs once untraced
// and once traced, so the tracing overhead is measured on the same
// inputs in the same run.
func traceCompile(o *options, ins []compileInput, rng *rand.Rand, rep *report) error {
	tr := newTracer()
	var samples []*layerSample
	var untraced, traced, layerSum []float64
	start := time.Now()
	op := 0
	for pass := 0; pass == 0 || time.Since(start) < o.seconds; pass++ {
		for _, i := range rng.Perm(len(ins)) {
			in := &ins[i]
			rep.attempted++
			var s *layerSample
			var out *compileOut
			var d time.Duration
			var err error
			// Alternate which of the pair runs first, so neither gains
			// from the other warming the caches.
			untracedOp := func() {
				if err == nil {
					t0 := time.Now()
					_, err = compileOp(in)
					d = time.Since(t0)
				}
			}
			if op%2 == 0 {
				untracedOp()
			}
			if err == nil {
				s, out, err = tracedCompileOp(tr, op, in)
			}
			if op%2 == 1 {
				untracedOp()
			}
			op++
			if err == nil {
				err = checkCompile(in, out, o.exp)
			}
			if err != nil {
				rep.fail(fmt.Errorf("%s: %w", in.name, err))
				continue
			}
			samples = append(samples, s)
			untraced = append(untraced, ms(d))
			traced = append(traced, ms(s.traced))
			layerSum = append(layerSum, ms(s.pipeline()))
		}
	}
	if err := tr.finish(o, op); err != nil {
		return err
	}
	n := float64(max(len(samples), 1))
	per := func(f func(*layerSample) float64) float64 {
		t := 0.0
		for _, s := range samples {
			t += f(s)
		}
		return t / n
	}
	perMS := func(f func(*layerSample) time.Duration) float64 {
		return per(func(s *layerSample) float64 { return ms(f(s)) })
	}
	lv := layerValues{}
	lv.set("parser.ms", perMS(func(s *layerSample) time.Duration { return s.parser }))
	lv.set("parser.allocs", per(func(s *layerSample) float64 { return float64(s.parserAllocs) }))
	lv.set("inline.ms", perMS(func(s *layerSample) time.Duration { return s.inline }))
	lv.set("sem.ms", perMS(func(s *layerSample) time.Duration { return s.sem }))
	lv.set("scalarize.ms", perMS(func(s *layerSample) time.Duration { return s.scalarize }))
	lv.set("scalarize.stmts", per(func(s *layerSample) float64 { return float64(s.stmts) }))
	lv.set("cfg.ms", perMS(func(s *layerSample) time.Duration { return s.cfg }))
	lv.set("dom.ms", perMS(func(s *layerSample) time.Duration { return s.dom }))
	lv.set("ssa.ms", perMS(func(s *layerSample) time.Duration { return s.ssa }))
	lv.set("dep.ms", perMS(func(s *layerSample) time.Duration { return s.dep }))
	lv.set("core.analyze.self_ms", perMS(func(s *layerSample) time.Duration {
		return s.analyze - (s.scalarize + s.cfg + s.dom + s.ssa + s.dep)
	}))
	lv.set("core.analyze.allocs", per(func(s *layerSample) float64 { return float64(s.analyzeAllocs) }))
	lv.set("core.entries", per(func(s *layerSample) float64 { return float64(s.entries) }))
	for i, v := range []string{"orig", "nored", "comb"} {
		lv.set("core.place."+v+".ms", perMS(func(s *layerSample) time.Duration { return s.place[i] }))
		lv.set("core.place."+v+".groups", per(func(s *layerSample) float64 { return float64(s.groups[i]) }))
	}
	lv.set("core.place.comb.allocs", per(func(s *layerSample) float64 { return float64(s.combAllocs) }))
	lv.set("spmd.estimate.ms", perMS(func(s *layerSample) time.Duration { return s.estimate }))
	lv.set("bound.ms", perMS(func(s *layerSample) time.Duration { return s.bound }))
	setTraceOverhead(lv, untraced, traced, layerSum)
	lv.addTo(rep)
	return nil
}

// setTraceOverhead reports the untraced and traced operation medians
// of one traced run and the median sum of layer times per operation.
// The three slices hold one entry per operation, in the same order;
// the overhead is the median of each operation's traced over untraced
// time.
func setTraceOverhead(lv layerValues, untraced, traced, layerSum []float64) {
	lv.set("trace.untraced_ms_p50", median(untraced))
	lv.set("trace.traced_ms_p50", median(traced))
	lv.set("trace.layer_sum_ms_p50", median(layerSum))
	ratios := make([]float64, 0, len(untraced))
	for i, u := range untraced {
		if u > 0 {
			ratios = append(ratios, traced[i]/u)
		}
	}
	lv.set("trace.overhead_ratio", median(ratios))
}

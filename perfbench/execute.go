package main

import (
	"fmt"
	"math/rand"
	"time"

	"gcao"
	"gcao/internal/native"
	"gcao/internal/spmd"
)

// execProcs is the processor count of the execute workload: more
// logical processors than the two cores the benchmark was sized on, so
// the per-element interpreter's O(P·N) walk and the sharded simulator
// both show.
const execProcs = 16

// execPlacement is one of the execute workload's twelve placements.
type execPlacement struct {
	key    string // bench-routine.version
	placed *gcao.Placed
	ref    *spmd.RunResult // the routine's single-processor reference
}

// executeSetup compiles the six routines at DefaultN on execProcs
// processors, places each under orig and comb, and simulates each
// routine on one processor as the reference results are checked
// against.
func executeSetup(o *options) ([]execPlacement, []error) {
	progs, errs := o.exp.pinnedPrograms()
	var pls []execPlacement
	for _, pr := range progs {
		params := pr.Params(pr.DefaultN)
		c, err := gcao.Compile(pr.Source, gcao.Config{Params: params, Procs: execProcs})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", routineName(pr), err))
			continue
		}
		seqC, err := gcao.Compile(pr.Source, gcao.Config{Params: params, Procs: 1})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s P=1: %w", routineName(pr), err))
			continue
		}
		seqP, err := seqC.Place(gcao.Combine)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s P=1: %w", routineName(pr), err))
			continue
		}
		ref, err := seqP.Simulate(gcao.SP2(), 1)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s P=1 reference: %w", routineName(pr), err))
			continue
		}
		for _, s := range []gcao.Strategy{gcao.Vectorize, gcao.Combine} {
			p, err := c.Place(s)
			if err != nil {
				errs = append(errs, fmt.Errorf("%s %s: %w", routineName(pr), s, err))
				continue
			}
			pls = append(pls, execPlacement{key: routineName(pr) + "." + s.String(), placed: p, ref: ref})
		}
	}
	return pls, errs
}

// checkExecute compares the native result with the simulator's bit for
// bit and the simulator's with the single-processor reference.
func checkExecute(pl *execPlacement, nat *native.RunResult, sim *spmd.RunResult) (natErr, simErr error) {
	if err := native.Diff(nat, sim); err != nil {
		natErr = fmt.Errorf("%s: %w", pl.key, err)
	}
	if err := spmd.VerifyAgainstSequential(sim, pl.ref); err != nil {
		simErr = fmt.Errorf("%s: %w", pl.key, err)
	}
	return natErr, simErr
}

func runExecute(o *options) (*report, error) {
	type setupOut struct {
		pls  []execPlacement
		errs []error
	}
	su, setupS, err := medianSetup(setupReps, func() (setupOut, error) {
		pls, errs := executeSetup(o)
		return setupOut{pls, errs}, nil
	})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	rep.failChecks(su.errs)
	rng := rand.New(rand.NewSource(o.seed))
	if o.traced {
		return rep, traceExecute(o, su.pls, rng, rep)
	}

	// Rounds are the windows the median and throughput are taken over,
	// with a burst of reference parses before every second placement.
	var nativeRounds, simRounds []float64
	var w windows
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < o.seconds; round++ {
		w.begin()
		var natRound, simRound time.Duration
		for k, i := range rng.Perm(len(su.pls)) {
			pl := &su.pls[i]
			if k%2 == 0 {
				w.calibrate(3)
			}
			t0 := time.Now()
			nat, natErr := pl.placed.RunNative(execProcs)
			dn := time.Since(t0)
			t0 = time.Now()
			sim, simErr := pl.placed.Simulate(gcao.SP2(), execProcs)
			ds := time.Since(t0)
			natRound += dn
			simRound += ds
			if natErr == nil && simErr == nil {
				natErr, simErr = checkExecute(pl, nat, sim)
			}
			for _, r := range []struct {
				d   time.Duration
				err error
			}{{dn, natErr}, {ds, simErr}} {
				rep.attempted++
				if r.err != nil {
					rep.fail(r.err)
				}
				w.op(r.d, r.err == nil)
			}
		}
		if err := w.end(); err != nil {
			return nil, err
		}
		nativeRounds = append(nativeRounds, natRound.Seconds())
		simRounds = append(simRounds, simRound.Seconds())
	}
	fmt.Printf("native_round_s %.4f s, sim_round_s %.4f s (median of %d rounds of %d placements)\n",
		median(nativeRounds), median(simRounds), len(nativeRounds), len(su.pls))
	rep.add("setup_s", setupS, "s", setupReps)
	rep.add("peak_rss_mb", median(w.peaks), "MiB", len(w.peaks))
	w.report(rep)
	return rep, nil
}

// traceExecute is the traced execute run. Per placement it times an
// untraced RunNative and Simulate, then native.NewEngine apart from
// Engine.Run and spmd.Run under spans; after the rounds it runs each
// placement once through RunNativeProfiled for the blocked share.
func traceExecute(o *options, pls []execPlacement, rng *rand.Rand, rep *report) error {
	tr := newTracer()
	m := gcao.SP2()
	// untraced, traced and layerSum hold one entry per operation, in
	// the same order: a placement's native run, then its simulation.
	var untraced, traced, layerSum []float64
	var natSetup, natRun, simRun []float64
	var natAllocs, simAllocs, natMsgs, natWire []float64
	perNative := map[string][]float64{}
	perSim := map[string][]float64{}
	op := 0
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < o.seconds; round++ {
		for _, i := range rng.Perm(len(pls)) {
			pl := &pls[i]
			rep.attempted += 2
			t0 := time.Now()
			_, err := pl.placed.RunNative(execProcs)
			dn := time.Since(t0)
			if err == nil {
				t0 = time.Now()
				_, err = pl.placed.Simulate(m, execProcs)
			}
			ds := time.Since(t0)
			if err != nil {
				rep.fail(fmt.Errorf("%s: %w", pl.key, err))
				continue
			}

			root := tr.begin("execute.native", op, -1)
			id := tr.begin("native.setup", op, root)
			eng, err := native.NewEngine(pl.placed.Result, execProcs)
			dSetup := tr.end(id)
			var nat *native.RunResult
			var dRun time.Duration
			if err == nil {
				m0 := mallocs()
				id = tr.begin("native.run", op, root)
				nat, err = eng.Run()
				dRun = tr.end(id)
				natAllocs = append(natAllocs, float64(mallocs()-m0))
			}
			dNat := tr.end(root)
			op++
			var sim *spmd.RunResult
			var dSim, dSimOp time.Duration
			if err == nil {
				root = tr.begin("execute.simulate", op, -1)
				m0 := mallocs()
				id = tr.begin("spmd.run", op, root)
				sim, err = spmd.Run(pl.placed.Result, m, execProcs)
				dSim = tr.end(id)
				simAllocs = append(simAllocs, float64(mallocs()-m0))
				dSimOp = tr.end(root)
				op++
			}
			var natErr, simErr error
			if err == nil {
				natErr, simErr = checkExecute(pl, nat, sim)
			} else {
				natErr = fmt.Errorf("%s: %w", pl.key, err)
			}
			for _, e := range []error{natErr, simErr} {
				if e != nil {
					rep.fail(e)
				}
			}
			if err != nil {
				continue
			}
			untraced = append(untraced, ms(dn), ms(ds))
			traced = append(traced, ms(dNat), ms(dSimOp))
			layerSum = append(layerSum, ms(dSetup+dRun), ms(dSim))
			natSetup = append(natSetup, ms(dSetup))
			natRun = append(natRun, ms(dRun))
			simRun = append(simRun, ms(dSim))
			natMsgs = append(natMsgs, float64(nat.Stats.Messages))
			natWire = append(natWire, float64(nat.Stats.WireBytes))
			perNative[pl.key] = append(perNative[pl.key], ms(dRun))
			perSim[pl.key] = append(perSim[pl.key], ms(dSim))
		}
	}

	var blocked, busy float64
	for i := range pls {
		pl := &pls[i]
		rep.attempted++
		res, err := pl.placed.RunNativeProfiled(execProcs, nil)
		if err == nil && res.Profile == nil {
			err = fmt.Errorf("RunNativeProfiled returned no profile")
		}
		if err != nil {
			rep.fail(fmt.Errorf("%s profiled: %w", pl.key, err))
			continue
		}
		blocked += res.Profile.BlockedSeconds
		busy += res.Profile.BlockedSeconds + res.Profile.ComputeSeconds
	}
	if err := tr.finish(o, op); err != nil {
		return err
	}

	lv := layerValues{}
	lv.set("native.setup.ms", mean(natSetup))
	lv.set("native.run.ms", mean(natRun))
	lv.set("native.allocs", mean(natAllocs))
	lv.set("native.messages", mean(natMsgs))
	lv.set("native.wire_bytes", mean(natWire))
	if busy > 0 {
		lv.set("native.blocked_share", blocked/busy)
	}
	lv.set("spmd.run.ms", mean(simRun))
	lv.set("spmd.run.allocs", mean(simAllocs))
	for _, key := range execPlacements {
		lv.set("native.run."+key+".ms", median(perNative[key]))
		lv.set("spmd.run."+key+".ms", median(perSim[key]))
	}
	setTraceOverhead(lv, untraced, traced, layerSum)
	lv.addTo(rep)
	return nil
}

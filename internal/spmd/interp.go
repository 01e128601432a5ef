// Package spmd executes compiled programs on the simulated
// distributed-memory machine. It provides two engines:
//
//   - Run, a functional bulk-synchronous interpreter that executes the
//     scalarized program elementwise over per-processor memories with
//     validity tracking. It proves a communication placement correct
//     (a stale read aborts the run) and produces exact per-processor
//     time and message statistics under the machine cost model. The
//     per-processor loops are sharded over a pool of worker goroutines
//     on contiguous processor ranges (see parallel.go); results are
//     bit-identical to a single-shard run regardless of worker count.
//
//   - Estimate, an analytic walker that computes the same per-processor
//     CPU/network time split without touching data, so the paper's
//     problem sizes (up to 325³ gravity grids) are simulated in
//     microseconds.
//
// Both engines consume a placement Result from package core, so the
// three compiler versions (orig / nored / comb) can be compared on
// identical programs.
package spmd

import (
	"fmt"
	"math"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/obs"
	"gcao/internal/plan"
	"gcao/internal/runtime"
	"gcao/internal/section"
)

// Local aliases keep the evaluator readable.
type (
	sectionT    = section.Section
	sectionDimT = section.Dim
)

// RunResult is the outcome of a functional simulation.
type RunResult struct {
	Ledger  *runtime.Ledger
	Mem     *runtime.Memory
	Scalars map[string]float64
}

// ---------------------------------------------------------------------
// shard: one worker's view of the run

// frame is one loop's iteration state (replicated per shard).
type frame struct {
	lo, hi, step, cur int
}

// sumEntry memoizes one SUM call's value within a single statement
// execution: the total is processor-independent, only the flop share
// differs, so each shard computes the section scan once per statement
// instead of once per processor.
type sumEntry struct {
	total  float64
	counts []int // per-processor owned element counts; nil if replicated
	n      int   // element count for replicated sums
}

// shard executes the full control flow for the contiguous processor
// range [lo, hi). All integer bookkeeping (loop frames, scalar
// environment) is replicated per shard; memory and ledger writes stay
// inside the range except at phaser rendezvous points.
type shard struct {
	eng     *engine
	idx     int
	lo, hi  int
	ienv    map[string]int
	scalars map[string]float64
	frames  map[*cfg.Loop]*frame
	led     *runtime.LedgerView
	// prof is the shard's scratch pair matrix, merged into the master
	// profile at each superstep rendezvous (nil when unprofiled).
	prof    *obs.CommProfile
	sumMemo map[*ast.Call]sumEntry
	coords  []int // grid-coordinate scratch for owner computations
}

func (sh *shard) run() error {
	cur := sh.eng.pl.A.G.EntryBlock
	var prev *cfg.Block
	for cur != nil {
		next, err := sh.execBlock(cur, prev)
		if err != nil {
			return err
		}
		prev, cur = cur, next
	}
	return nil
}

func (sh *shard) execBlock(b *cfg.Block, prev *cfg.Block) (*cfg.Block, error) {
	pl := sh.eng.pl
	switch b.Kind {
	case cfg.Header:
		loop := b.Loop
		fr := sh.frames[loop]
		if prev == loop.PreHeader {
			fr.cur = fr.lo
		} else {
			fr.cur += fr.step
		}
		sh.ienv[loop.Var()] = fr.cur
		cont := fr.cur <= fr.hi
		if fr.step < 0 {
			cont = fr.cur >= fr.hi
		}
		if !cont {
			return b.Succs[1], nil // postexit
		}
		// Communication placed at the loop header executes once per
		// iteration, after the φ point.
		if err := sh.execComm(pl.Comm[b.ID][0]); err != nil {
			return nil, err
		}
		return b.Succs[0], nil

	case cfg.PreHeader:
		loop := pl.LoopOf[b.ID]
		if loop == nil {
			panic("spmd: preheader without loop")
		}
		if err := sh.execComm(pl.Comm[b.ID][0]); err != nil {
			return nil, err
		}
		lo, err1 := sh.evalInt(loop.Do.Lo)
		hi, err2 := sh.evalInt(loop.Do.Hi)
		if err1 != nil {
			return nil, err1
		}
		if err2 != nil {
			return nil, err2
		}
		step := 1
		if loop.Do.Step != nil {
			s, err := sh.evalInt(loop.Do.Step)
			if err != nil {
				return nil, err
			}
			if s == 0 {
				return nil, fmt.Errorf("spmd: zero loop step at %s", loop.Do.Pos)
			}
			step = s
		}
		sh.frames[loop] = &frame{lo: lo, hi: hi, step: step}
		empty := lo > hi
		if step < 0 {
			empty = lo < hi
		}
		if empty {
			return b.Succs[1], nil // zero-trip edge
		}
		return b.Succs[0], nil

	default:
		if err := sh.execComm(pl.Comm[b.ID][0]); err != nil {
			return nil, err
		}
		for k, st := range b.Stmts {
			if err := sh.execStmt(st); err != nil {
				return nil, err
			}
			if err := sh.execComm(pl.Comm[b.ID][k+1]); err != nil {
				return nil, err
			}
		}
		if b.Branch != nil {
			v, err := sh.evalCond(b)
			if err != nil {
				return nil, err
			}
			// Every processor evaluates the replicated condition.
			for p := sh.lo; p < sh.hi; p++ {
				sh.led.Compute(p, 1)
			}
			if v {
				return b.Succs[0], nil
			}
			return b.Succs[1], nil
		}
		if len(b.Succs) == 0 {
			return nil, nil
		}
		return b.Succs[0], nil
	}
}

// ---------------------------------------------------------------------
// statement execution

func (sh *shard) execStmt(st *cfg.Stmt) error {
	si := sh.eng.pl.Info[st]
	if si.HasSum {
		clear(sh.sumMemo)
	}
	if si.Sync {
		return sh.execSyncStmt(st, si)
	}
	as := st.Assign

	if si.LHS == nil {
		// Scalar target: every processor computes the replicated value;
		// this shard evaluates its range (the value is processor-
		// independent, cross-shard agreement is checked at the next
		// rendezvous).
		v, err := sh.evalRange(as.RHS, si.Flops)
		if err != nil {
			return err
		}
		sh.scalars[as.LHS.Name] = v
		return nil
	}

	// Owner-computes on a distributed array (replicated-array stores
	// are sync statements).
	am := si.LHS
	idx, off, err := sh.lhsIndex(as, am)
	if err != nil {
		return err
	}
	owner := sh.ownerOf(am, idx)
	if owner >= sh.lo && owner < sh.hi {
		v, extra, err := sh.evalOn(owner, as.RHS)
		if err != nil {
			return err
		}
		am.StoreOwner(off, owner, v)
		sh.led.Compute(owner, si.Flops+extra)
	}
	am.InvalidateRange(off, owner, sh.lo, sh.hi)
	return nil
}

// execSyncStmt executes a statement that needs a rendezvous: either
// its RHS sums a distributed array (reading owner rows across shard
// ranges, so all shards must quiesce first) or its LHS is a
// replicated array (single shared row, written once by the leader).
func (sh *shard) execSyncStmt(st *cfg.Stmt, si *plan.StmtInfo) error {
	eng := sh.eng
	as := st.Assign

	// Rendezvous 1: quiesce. After this point no shard mutates memory
	// until rendezvous 2, so cross-range owner reads are safe.
	if err := eng.ph.await(token{kind: tkStmtA, a: st.ID}, nil); err != nil {
		return err
	}

	var idx []int
	var off, owner int
	var serr error
	eng.syncHas[sh.idx] = false
	if si.LHS != nil {
		idx, off, serr = sh.lhsIndex(as, si.LHS)
		if serr == nil && si.LHS.Dist != nil {
			owner = sh.ownerOf(si.LHS, idx)
		}
	}
	if serr == nil {
		switch {
		case si.LHS != nil && si.LHS.Dist != nil:
			// Owner-computes: only the owner's shard evaluates.
			if owner >= sh.lo && owner < sh.hi {
				v, extra, err := sh.evalOn(owner, as.RHS)
				if err != nil {
					serr = err
				} else {
					eng.syncVals[sh.idx] = v
					eng.syncHas[sh.idx] = true
					sh.led.Compute(owner, si.Flops+extra)
				}
			}
		default:
			// Scalar or replicated-array target: the value is
			// replicated; this shard evaluates and charges its range.
			v, err := sh.evalRange(as.RHS, si.Flops)
			if err != nil {
				serr = err
			} else {
				eng.syncVals[sh.idx] = v
				eng.syncHas[sh.idx] = true
			}
		}
	}
	eng.shardErrs[sh.idx] = serr

	// Rendezvous 2: the leader validates agreement and performs the
	// single shared write.
	err := eng.ph.await(token{kind: tkStmtB, a: st.ID}, func() error {
		if err := eng.firstShardError(); err != nil {
			return err
		}
		var v0 float64
		have := false
		for i, has := range eng.syncHas {
			if !has {
				continue
			}
			v := eng.syncVals[i]
			if !have {
				v0, have = v, true
			} else if v != v0 && !(math.IsNaN(v) && math.IsNaN(v0)) {
				return fmt.Errorf("spmd: replicated computation diverged: %g vs %g", v0, v)
			}
		}
		if si.LHS != nil && !have {
			return fmt.Errorf("spmd: no shard computed %s", as.LHS.Name)
		}
		eng.syncResult = v0
		if si.LHS != nil && si.LHS.Dist != nil {
			si.LHS.StoreOwner(off, owner, v0)
		} else if si.LHS != nil {
			si.LHS.StoreOwner(off, 0, v0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if si.LHS == nil {
		sh.scalars[as.LHS.Name] = eng.syncResult
	} else if si.LHS.Dist != nil {
		si.LHS.InvalidateRange(off, owner, sh.lo, sh.hi)
	}
	return nil
}

// evalRange evaluates a replicated expression on each processor of
// the shard's range, verifying intra-shard agreement and charging the
// per-processor flops (base + reduction share) to the shard ledger.
func (sh *shard) evalRange(e ast.Expr, flops int) (float64, error) {
	var v0 float64
	for p := sh.lo; p < sh.hi; p++ {
		v, extra, err := sh.evalOn(p, e)
		if err != nil {
			return 0, err
		}
		if p == sh.lo {
			v0 = v
		} else if v != v0 && !(math.IsNaN(v) && math.IsNaN(v0)) {
			return 0, fmt.Errorf("spmd: replicated computation diverged: %g vs %g", v0, v)
		}
		sh.led.Compute(p, flops+extra)
	}
	return v0, nil
}

// lhsIndex evaluates the LHS subscripts and their offset into am.
func (sh *shard) lhsIndex(as *ast.AssignStmt, am *runtime.ArrayMem) ([]int, int, error) {
	idx := make([]int, len(as.LHS.Subs))
	for i, sub := range as.LHS.Subs {
		if sub.Kind != ast.SubExpr {
			return nil, 0, fmt.Errorf("spmd: unscalarized section on LHS at %s", as.Pos)
		}
		x, err := sh.evalInt(sub.X)
		if err != nil {
			return nil, 0, err
		}
		idx[i] = x
	}
	off, err := am.CheckedOffset(idx, as.LHS.Pos)
	return idx, off, err
}

// ownerOf computes an element's owner through the shard's reusable
// coordinate buffer.
func (sh *shard) ownerOf(am *runtime.ArrayMem, idx []int) int {
	r := am.Dist.Grid.Rank()
	if cap(sh.coords) < r {
		sh.coords = make([]int, r)
	}
	return am.OwnerInto(idx, sh.coords[:r])
}

// evalOn evaluates an expression from one processor's point of view.
// extra counts the processor's share of reduction flops.
func (sh *shard) evalOn(p int, e ast.Expr) (val float64, extra int, err error) {
	switch e := e.(type) {
	case *ast.NumLit:
		return e.Value, 0, nil
	case *ast.Ident:
		if v, ok := sh.ienv[e.Name]; ok {
			return float64(v), 0, nil
		}
		if v, ok := sh.scalars[e.Name]; ok {
			return v, 0, nil
		}
		return 0, 0, fmt.Errorf("spmd: unbound scalar %q", e.Name)
	case *ast.UnaryExpr:
		v, ex, err := sh.evalOn(p, e.X)
		return -v, ex, err
	case *ast.BinExpr:
		x, ex1, err := sh.evalOn(p, e.X)
		if err != nil {
			return 0, 0, err
		}
		y, ex2, err := sh.evalOn(p, e.Y)
		if err != nil {
			return 0, 0, err
		}
		switch e.Op {
		case ast.Add:
			return x + y, ex1 + ex2, nil
		case ast.Sub_:
			return x - y, ex1 + ex2, nil
		case ast.Mul:
			return x * y, ex1 + ex2, nil
		case ast.Div:
			return x / y, ex1 + ex2, nil
		case ast.Pow:
			return math.Pow(x, y), ex1 + ex2, nil
		case ast.CmpLt:
			return b2f(x < y), ex1 + ex2, nil
		case ast.CmpGt:
			return b2f(x > y), ex1 + ex2, nil
		case ast.CmpLe:
			return b2f(x <= y), ex1 + ex2, nil
		case ast.CmpGe:
			return b2f(x >= y), ex1 + ex2, nil
		case ast.CmpEq:
			return b2f(x == y), ex1 + ex2, nil
		case ast.CmpNe:
			return b2f(x != y), ex1 + ex2, nil
		}
		return 0, 0, fmt.Errorf("spmd: bad operator %v", e.Op)
	case *ast.Ref:
		am := sh.eng.pl.RefArr[e]
		if am == nil {
			if v, ok := sh.ienv[e.Name]; ok {
				return float64(v), 0, nil
			}
			return sh.scalars[e.Name], 0, nil
		}
		idx := make([]int, len(e.Subs))
		for i, sub := range e.Subs {
			if sub.Kind != ast.SubExpr {
				return 0, 0, fmt.Errorf("spmd: section read outside SUM at %s", e.Pos)
			}
			x, err := sh.evalInt(sub.X)
			if err != nil {
				return 0, 0, err
			}
			idx[i] = x
		}
		off, err := am.CheckedOffset(idx, e.Pos)
		if err != nil {
			return 0, 0, err
		}
		v, err := am.ReadAt(p, off, idx)
		return v, 0, err
	case *ast.Call:
		if e.Func == "sum" {
			return sh.evalSum(p, e)
		}
		args := make([]float64, len(e.Args))
		var extra int
		for i, a := range e.Args {
			v, ex, err := sh.evalOn(p, a)
			if err != nil {
				return 0, 0, err
			}
			args[i] = v
			extra += ex
		}
		switch e.Func {
		case "sqrt":
			return math.Sqrt(args[0]), extra, nil
		case "abs":
			return math.Abs(args[0]), extra, nil
		case "exp":
			return math.Exp(args[0]), extra, nil
		case "min":
			return math.Min(args[0], args[1]), extra, nil
		case "max":
			return math.Max(args[0], args[1]), extra, nil
		case "mod":
			return math.Mod(args[0], args[1]), extra, nil
		}
		return 0, 0, fmt.Errorf("spmd: unknown intrinsic %q", e.Func)
	}
	return 0, 0, fmt.Errorf("spmd: cannot evaluate %T", e)
}

// evalSum evaluates SUM over an array section: partial sums are
// computed by the owners (charged to extra on processor p as its
// share) and the combine is charged by the reduction group. The total
// is processor-independent, so the section scan is memoized per
// statement execution and reused across the shard's processors.
func (sh *shard) evalSum(p int, e *ast.Call) (float64, int, error) {
	if len(e.Args) != 1 {
		return 0, 0, fmt.Errorf("spmd: sum wants 1 argument")
	}
	ref, ok := e.Args[0].(*ast.Ref)
	if !ok {
		return 0, 0, fmt.Errorf("spmd: sum argument must be an array section")
	}
	if m, ok := sh.sumMemo[e]; ok {
		if m.counts != nil {
			return m.total, m.counts[p], nil
		}
		return m.total, m.n, nil
	}
	am := sh.eng.pl.RefArr[ref]
	if am == nil {
		return 0, 0, fmt.Errorf("spmd: sum over non-array %q", ref.Name)
	}
	sec, err := sh.eng.pl.ConcreteRefSection(ref, am, sh.ienv)
	if err != nil {
		return 0, 0, err
	}
	if am.Dist == nil {
		total := 0.0
		n := 0
		sec.Elems(func(idx []int) bool {
			v, _ := am.ReadAt(0, am.Offset(idx), idx)
			total += v
			n++
			return true
		})
		sh.sumMemo[e] = sumEntry{total: total, n: n}
		return total, n, nil
	}
	total, counts := sh.eng.mem.SumSection(ref.Name, sec)
	sh.sumMemo[e] = sumEntry{total: total, counts: counts}
	return total, counts[p], nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// evalCond evaluates a branch condition. Scalar-only conditions are
// evaluated locally (every shard computes the identical value);
// conditions reading distributed data rendezvous so the leader can
// evaluate processor 0's view while all shards are quiescent.
func (sh *shard) evalCond(b *cfg.Block) (bool, error) {
	eng := sh.eng
	clear(sh.sumMemo)
	if !eng.pl.CondSync[b.ID] {
		v, _, err := sh.evalOn(0, b.Branch.Cond)
		return v != 0, err
	}
	err := eng.ph.await(token{kind: tkCond, a: b.ID}, func() error {
		clear(sh.sumMemo)
		v, _, err := sh.evalOn(0, b.Branch.Cond)
		if err != nil {
			return err
		}
		eng.condVal = v != 0
		return nil
	})
	if err != nil {
		return false, err
	}
	return eng.condVal, nil
}

func (sh *shard) evalInt(e ast.Expr) (int, error) {
	return sh.eng.pl.A.Unit.EvalIntEnv(e, sh.ienv)
}

// VerifyAgainstSequential compares the canonical memory of a parallel
// run against a sequential (single-processor) run of the same
// analysis: it returns an error naming the first differing array
// element. Both runs must use placements of the same program.
func VerifyAgainstSequential(par, seq *RunResult) error {
	for _, name := range par.Mem.Unit.ArrayNames {
		pv := par.Mem.Canonical(name)
		sv := seq.Mem.Canonical(name)
		for i := range pv {
			if pv[i] != sv[i] && !(math.IsNaN(pv[i]) && math.IsNaN(sv[i])) {
				return fmt.Errorf("spmd: array %q differs at flat index %d: parallel %g vs sequential %g", name, i, pv[i], sv[i])
			}
		}
	}
	for k, v := range seq.Scalars {
		if pv, ok := par.Scalars[k]; ok && pv != v && !(math.IsNaN(pv) && math.IsNaN(v)) {
			return fmt.Errorf("spmd: scalar %q differs: parallel %g vs sequential %g", k, pv, v)
		}
	}
	return nil
}

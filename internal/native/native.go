// Package native executes a placed program as real concurrent
// goroutines — one per logical processor — instead of simulating it
// under the BSP cost model. Each goroutine owns its processor's row of
// every distributed array (the same per-processor memory image package
// runtime gives the simulator) and the placed communication groups are
// realized as actual channel transfers: ghost-strip exchanges as
// neighbour sends with packed validity bitmaps, broadcasts, gathers
// and distributed SUMs as binomial-tree collectives rooted at
// processor 0 (log-P critical path), with every payload slice recycled
// through per-pair free channels so the fabric allocates nothing in
// steady state.
//
// The backend is built to be bit-for-bit equivalent to the simulator
// (spmd.Run): both execute the same plan.Plan, every floating-point
// accumulation happens in the same order on the same values, and the
// VerifyAgainstSimulator harness enforces the equivalence for every
// paper benchmark × compiler version × processor count. The codegen
// listing is the contract between the two: the operations a native run
// performs are exactly the COMM pseudo-calls the listing prints, and
// Stats.Ops counts them under the listing's vocabulary (exchange,
// broadcast, gather, global-sum).
//
// Determinism argument (see DESIGN.md §13): each processor's state —
// its array rows, validity planes, scalar environment and loop frames
// — is written only by its own goroutine outside of barriers, and
// evolves as a pure function of program order plus the messages it
// receives. Message contents are pure functions of the senders' state
// at matched program points, tree hops move bits without arithmetic,
// and every collective combines operands in a fixed section order at
// the root only. By induction the whole run is a deterministic
// function of the placement, independent of goroutine scheduling;
// since the simulator computes the same function (same plan, same
// evaluation order, same combine order), the final states agree
// bitwise.
package native

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sync"
	"time"

	"gcao/internal/ast"
	"gcao/internal/cfg"
	"gcao/internal/core"
	"gcao/internal/native/prof"
	"gcao/internal/obs"
	"gcao/internal/plan"
	"gcao/internal/runtime"
)

// Stats summarizes one native run.
type Stats struct {
	// Procs is the logical processor (goroutine) count.
	Procs int
	// Messages counts payload-bearing channel transfers (each message
	// once, at the sender); Bytes counts the delivered element payload
	// (8 bytes per float64), excluding protocol framing.
	Messages int64
	Bytes    int64
	// WireBytes counts every float64 word actually sent per hop —
	// payload, validity bitmaps and framing included — so it is the
	// bytes-on-the-wire figure the optimality-gap dashboard can compare
	// against the modeled ledger.
	WireBytes int64
	// Hops counts the tree messages collectives moved (gather ascents,
	// broadcast descents, value broadcasts); the critical path of one
	// collective is ceil(log2 P) of them.
	Hops int64
	// AllocBytes counts payload-buffer bytes the message fabric
	// allocated because no recycled buffer fit; zero in steady state.
	AllocBytes int64
	// Collectives counts executed communication groups; Barriers the
	// full synchronization barriers (replicated-array stores).
	Collectives int64
	Barriers    int64
	// Ops counts the executed communication operations under the
	// codegen listing's vocabulary (exchange, broadcast, gather,
	// global-sum).
	Ops map[string]int64
	// ElapsedSeconds is the wall clock of the run proper (first
	// goroutine launch through final barrier).
	ElapsedSeconds float64
}

// RunResult is the outcome of a native execution: the distributed
// memory image (owner rows hold the canonical values), the replicated
// scalar state, and the run statistics.
type RunResult struct {
	Mem     *runtime.Memory
	Scalars map[string]float64
	Stats   Stats
	// Profile is the folded runtime profile when the engine ran with
	// profiling enabled (see Engine.EnableProfiling), nil otherwise.
	Profile *prof.NativeProfile
}

// MaxProcs returns the largest logical processor count Run accepts
// under the oversubscription policy: up to 256 goroutines per
// available core (and never fewer than 1024 total) run multiplexed on
// the Go scheduler — every native operation blocks on a channel or a
// barrier, never spins, so progress is guaranteed at any GOMAXPROCS,
// including P=64 on a single core. Beyond the clamp a run is refused:
// that many parked goroutines signals a misconfigured grid, not a
// bigger machine.
func MaxProcs() int {
	n := goruntime.GOMAXPROCS(0) * 256
	if n < 1024 {
		n = 1024
	}
	return n
}

// Run executes the placement natively on procs goroutines.
func Run(res *core.Result, procs int) (*RunResult, error) {
	return RunObs(res, procs, nil)
}

// RunObs is Run with an obs recorder: the run is wrapped in a
// "native:<version>" phase span and its message/byte/collective
// counters are added under the native.<version>. prefix.
func RunObs(res *core.Result, procs int, rec *obs.Recorder) (*RunResult, error) {
	eng, err := NewEngine(res, procs)
	if err != nil {
		return nil, err
	}
	endRun := rec.Start("native:" + res.Version.String())
	defer endRun()
	out, err := eng.Run()
	if err != nil {
		return nil, err
	}
	if rec != nil {
		st := out.Stats
		prefix := "native." + res.Version.String() + "."
		rec.Add(prefix+"messages", st.Messages)
		rec.Add(prefix+"bytes", st.Bytes)
		rec.Add(prefix+"wire_bytes", st.WireBytes)
		rec.Add(prefix+"collective_hops", st.Hops)
		rec.Add(prefix+"alloc_bytes", st.AllocBytes)
		rec.Add(prefix+"collectives", st.Collectives)
		rec.Add(prefix+"barriers", st.Barriers)
		rec.Event(obs.LevelInfo, "native.done",
			obs.F("version", res.Version.String()),
			obs.F("procs", procs),
			obs.F("messages", st.Messages),
			obs.F("bytes", st.Bytes),
			obs.F("wire_bytes", st.WireBytes),
			obs.F("seconds", st.ElapsedSeconds))
	}
	return out, nil
}

// RunProfiled executes the placement natively with the runtime
// profiler enabled, installs the folded profile on the recorder (when
// one is given) and returns the result with RunResult.Profile set.
func RunProfiled(res *core.Result, procs int, rec *obs.Recorder) (*RunResult, error) {
	eng, err := NewEngine(res, procs)
	if err != nil {
		return nil, err
	}
	eng.EnableProfiling(0)
	endRun := rec.Start("native:" + res.Version.String())
	defer endRun()
	out, err := eng.Run()
	if err != nil {
		return nil, err
	}
	rec.SetNativeProfile(out.Profile)
	return out, nil
}

// ---------------------------------------------------------------------
// Engine: a prepared native execution, reusable across runs

// Engine is a prepared native execution: the plan, the memory image,
// the channel fabric and every per-processor scratch, built once.
// Run resets the memory image and replays the program, so repeated
// runs measure steady-state execution — the recycled message buffers
// and scratches survive between runs and the fabric allocates nothing
// after the first. An Engine is not safe for concurrent Runs, and a
// failed run poisons the engine (the error latch stays closed).
type Engine struct {
	eng *engine
	res *core.Result
}

// NewEngine prepares a native execution of the placement on procs
// goroutines: builds the memory image and shared plan, connects the
// channel fabric (tree and grid-neighbour pairs with their recycle
// channels), and sizes every per-processor scratch from the plan's
// bounds so the hot paths allocate nothing.
func NewEngine(res *core.Result, procs int) (*Engine, error) {
	a := res.Analysis
	if got := a.Unit.Grid.NumProcs(); got != procs {
		return nil, fmt.Errorf("native: unit compiled for %d processors, run requested %d", got, procs)
	}
	if max := MaxProcs(); procs > max {
		return nil, fmt.Errorf("native: %d processors exceeds the oversubscription clamp of %d (256×GOMAXPROCS, min 1024)", procs, max)
	}
	mem := runtime.NewMemory(a.Unit, procs)
	eng := &engine{
		pl:    plan.New(res, mem),
		mem:   mem,
		procs: procs,
		done:  make(chan struct{}),
	}
	eng.connectFabric()

	// Scratch sizing: the maximum array rank bounds subscript vectors,
	// the grid rank bounds owner-coordinate vectors.
	maxRank, gridRank := 1, a.Unit.Grid.Rank()
	for _, arr := range a.Unit.Arrays {
		if r := arr.Rank(); r > maxRank {
			maxRank = r
		}
	}
	if gridRank < 1 {
		gridRank = 1
	}

	eng.ps = make([]*proc, procs)
	for p := 0; p < procs; p++ {
		pc := &proc{
			eng:      eng,
			p:        p,
			coords:   a.Unit.Grid.Coords(p),
			ienv:     map[string]int{},
			scalars:  map[string]float64{},
			frames:   map[*cfg.Loop]*frame{},
			sumMemo:  map[*ast.Call]float64{},
			ops:      map[string]int64{},
			cbuf:     make([]int, gridRank),
			coordbuf: make([]int, gridRank),
			lhsidx:   make([]int, maxRank),
		}
		if p == 0 {
			// Gather-assembly scratch: only the tree root carves
			// per-processor streams out of child buffers.
			pc.cnt = make([]int, procs)
			pc.pos = make([]int, procs)
			pc.streams = make([][]float64, procs)
			pc.childbufs = make([][]float64, 0, len(eng.pl.Tree.Children[0]))
		}
		for name, v := range a.Unit.Params {
			pc.scalars[name] = float64(v)
		}
		eng.ps[p] = pc
	}
	return &Engine{eng: eng, res: res}, nil
}

// EnableProfiling arms the runtime profiler: every processor gets a
// preallocated event ring of at least eventsPerProc entries (<= 0
// selects prof.DefaultRingSize) and subsequent Runs fold the rings
// into RunResult.Profile. The rings are allocated here, once — the
// warm path records into them without allocating. Superstep indices in
// the profile follow group execution order, matching the simulator's
// attr.Step indices; the site table is the placement's stable SiteIDs.
func (e *Engine) EnableProfiling(eventsPerProc int) {
	eng := e.eng
	eng.sites = make([]string, len(e.res.Groups))
	for _, g := range e.res.Groups {
		eng.sites[g.ID] = g.SiteID
	}
	for _, pc := range eng.ps {
		pc.ring = prof.NewRing(eventsPerProc)
	}
}

// DisableProfiling disarms the profiler; later Runs record nothing and
// pay nothing (the nil-ring check is the only residue on hot paths).
func (e *Engine) DisableProfiling() {
	for _, pc := range e.eng.ps {
		pc.ring = nil
	}
}

// Run executes the prepared program once. The first call initializes,
// later calls reset the memory image and per-processor state first —
// message buffers and scratches are recycled, so steady-state runs do
// not allocate. The returned RunResult shares the engine's memory
// image; it is valid until the next Run.
func (e *Engine) Run() (*RunResult, error) {
	eng := e.eng
	if err := eng.err(); err != nil {
		return nil, fmt.Errorf("native: engine poisoned by earlier failure: %w", err)
	}
	if eng.ran {
		eng.mem.Reset()
	}
	eng.ran = true
	a := e.res.Analysis
	for _, pc := range eng.ps {
		clear(pc.ienv)
		clear(pc.frames)
		clear(pc.sumMemo)
		clear(pc.ops)
		clear(pc.scalars)
		for name, v := range a.Unit.Params {
			pc.scalars[name] = float64(v)
		}
		pc.msgs, pc.bytes, pc.wire, pc.hops, pc.allocBytes = 0, 0, 0, 0, 0
		pc.colls, pc.barriers = 0, 0
		pc.nextStep = 0
		if pc.ring != nil {
			pc.ring.Reset()
			pc.evStep, pc.evSite = -1, -1
			pc.evSend, pc.evRecv = prof.PhaseSend, prof.PhaseTreeWait
			pc.endNS = 0
		}
	}

	start := time.Now()
	eng.profStart = start
	var wg sync.WaitGroup
	for _, pc := range eng.ps[1:] {
		wg.Add(1)
		go func(pc *proc) {
			defer wg.Done()
			pc.main()
		}(pc)
	}
	eng.ps[0].main()
	wg.Wait()
	if err := eng.err(); err != nil {
		return nil, err
	}

	st := Stats{
		Procs:          eng.procs,
		Collectives:    eng.ps[0].colls,
		Barriers:       eng.ps[0].barriers,
		Ops:            eng.ps[0].ops,
		ElapsedSeconds: time.Since(start).Seconds(),
	}
	for _, pc := range eng.ps {
		st.Messages += pc.msgs
		st.Bytes += pc.bytes
		st.WireBytes += pc.wire
		st.Hops += pc.hops
		st.AllocBytes += pc.allocBytes
	}
	out := &RunResult{Mem: eng.mem, Scalars: eng.ps[0].scalars, Stats: st}
	if eng.ps[0].ring != nil {
		rings := make([]*prof.Ring, eng.procs)
		ends := make([]int64, eng.procs)
		for p, pc := range eng.ps {
			rings[p] = pc.ring
			ends[p] = pc.endNS
		}
		out.Profile = prof.Fold(eng.sites, rings, ends, int64(st.ElapsedSeconds*1e9))
	}
	return out, nil
}

// Profile returns the last Run's folded profile (nil when profiling is
// disabled or no profiled Run completed). The profile is rebuilt per
// Run; a retained pointer stays valid but stale.
func (e *Engine) Profile() *prof.NativeProfile {
	// Folding happens in Run; re-fold on demand so callers holding
	// only the engine can still read the last run's profile.
	eng := e.eng
	if eng.ps[0].ring == nil || !eng.ran {
		return nil
	}
	rings := make([]*prof.Ring, eng.procs)
	ends := make([]int64, eng.procs)
	var wall int64
	for p, pc := range eng.ps {
		rings[p] = pc.ring
		ends[p] = pc.endNS
		if pc.endNS > wall {
			wall = pc.endNS
		}
	}
	return prof.Fold(eng.sites, rings, ends, wall)
}

// ---------------------------------------------------------------------
// engine: shared immutable state plus the error latch

type engine struct {
	pl    *plan.Plan
	mem   *runtime.Memory
	procs int
	ps    []*proc
	ran   bool

	// profStart anchors profiler timestamps (set per Run); sites is
	// the placement-site table indexed by group ID, built when
	// profiling is enabled.
	profStart time.Time
	sites     []string

	// ch[dst][src] carries messages src→dst; free[src][dst] carries
	// consumed buffers back from dst to src for reuse. Both are
	// allocated only for pairs the protocol uses (binomial-tree edges
	// and grid neighbours), so the fabric stays O(P·rank) instead of
	// O(P²).
	ch   [][]chan []float64
	free [][]chan []float64

	// done is closed once on the first failure; every channel
	// operation selects on it, so an error unwinds all goroutines
	// without deadlock.
	done     chan struct{}
	failOnce sync.Once
	errMu    sync.Mutex
	errVal   error
}

// connectFabric allocates the channel pairs the protocol can use: the
// binomial-tree edges (collectives, barriers, condition broadcasts)
// and both directions between grid neighbours (shift exchanges).
// Capacity 1 lets a sender run one message ahead; each pair's recycle
// channel holds the at most two buffers the pair can have in flight.
func (eng *engine) connectFabric() {
	eng.ch = make([][]chan []float64, eng.procs)
	eng.free = make([][]chan []float64, eng.procs)
	for d := range eng.ch {
		eng.ch[d] = make([]chan []float64, eng.procs)
		eng.free[d] = make([]chan []float64, eng.procs)
	}
	connect := func(dst, src int) {
		if dst != src && eng.ch[dst][src] == nil {
			eng.ch[dst][src] = make(chan []float64, 1)
			eng.free[src][dst] = make(chan []float64, 2)
		}
	}
	for p := 1; p < eng.procs; p++ {
		parent := eng.pl.Tree.Parent[p]
		connect(p, parent)
		connect(parent, p)
	}
	shape := eng.pl.A.Unit.Grid.Shape
	for p := 0; p < eng.procs; p++ {
		coords := eng.pl.A.Unit.Grid.Coords(p)
		stride := 1
		for d := len(shape) - 1; d >= 0; d-- {
			if coords[d]+1 < shape[d] {
				connect(p, p+stride)
				connect(p+stride, p)
			}
			stride *= shape[d]
		}
	}
}

func (eng *engine) fail(err error) {
	eng.errMu.Lock()
	if eng.errVal == nil {
		eng.errVal = err
	}
	eng.errMu.Unlock()
	eng.failOnce.Do(func() { close(eng.done) })
}

func (eng *engine) err() error {
	eng.errMu.Lock()
	defer eng.errMu.Unlock()
	return eng.errVal
}

// ---------------------------------------------------------------------
// proc: one logical processor's goroutine state

// frame is one loop's iteration state (replicated per processor).
type frame struct {
	lo, hi, step, cur int
}

type proc struct {
	eng     *engine
	p       int
	coords  []int
	ienv    map[string]int
	scalars map[string]float64
	frames  map[*cfg.Loop]*frame
	// sumMemo caches SUM totals per call site within one statement
	// execution, mirroring the simulator's per-statement memo.
	sumMemo map[*ast.Call]float64

	// Reusable scratch, sized once at engine setup so the hot paths
	// allocate nothing: grid-coordinate vectors for owner computations
	// (cbuf) and shift destinations (coordbuf), the LHS subscript
	// vector, stack-disciplined subscript/argument scratch for
	// expression evaluation, the concretized entry list, the packed
	// contribution and assembled-section buffers, the shift validity
	// bitmap, and — root only — the gather stream-carving scratch.
	cbuf      []int
	coordbuf  []int
	lhsidx    []int
	idxstack  []int
	argstack  []float64
	entbuf    []entrySec
	minebuf   []float64
	fullbuf   []float64
	bitbuf    []uint64
	cnt       []int       // root: per-proc element counts of one gather
	pos       []int       // root: per-proc stream positions
	streams   [][]float64 // root: per-proc operand streams
	childbufs [][]float64 // root: child buffers held during assembly

	msgs, bytes     int64
	wire, hops      int64
	allocBytes      int64
	colls, barriers int64
	ops             map[string]int64

	// Profiler state. ring is nil when profiling is off — every
	// recording site guards on that, so the disabled path costs one
	// predictable branch. nextStep counts executed communication
	// groups (the superstep index, matching attr.Step order);
	// evStep/evSite/evSend/evRecv are the attribution context the
	// comm primitives stamp onto events. Distributed-SUM legs run at
	// the SUM statement, before their global-sum marker group's
	// position assigns a step index, so they record with
	// prof.PendingStep and the marker patches them (this goroutine's
	// own ring — single writer). endNS is the goroutine's finish
	// mark, nanoseconds since run start.
	ring           *prof.Ring
	nextStep       int32
	evStep, evSite int32
	evSend, evRecv prof.Phase
	endNS          int64
}

// nowNS is the profiler clock: nanoseconds since the run started.
func (pc *proc) nowNS() int64 {
	return int64(time.Since(pc.eng.profStart))
}

func (pc *proc) main() {
	if err := pc.run(); err != nil {
		pc.eng.fail(err)
	}
	if pc.ring != nil {
		pc.endNS = pc.nowNS()
	}
}

func (pc *proc) run() error {
	cur := pc.eng.pl.A.G.EntryBlock
	var prev *cfg.Block
	for cur != nil {
		next, err := pc.execBlock(cur, prev)
		if err != nil {
			return err
		}
		prev, cur = cur, next
	}
	return nil
}

// execBlock mirrors the simulator shard's CFG walk exactly: the same
// loop frame updates, the same zero-trip and post-exit edges, the same
// communication positions.
func (pc *proc) execBlock(b *cfg.Block, prev *cfg.Block) (*cfg.Block, error) {
	pl := pc.eng.pl
	switch b.Kind {
	case cfg.Header:
		loop := b.Loop
		fr := pc.frames[loop]
		if prev == loop.PreHeader {
			fr.cur = fr.lo
		} else {
			fr.cur += fr.step
		}
		pc.ienv[loop.Var()] = fr.cur
		cont := fr.cur <= fr.hi
		if fr.step < 0 {
			cont = fr.cur >= fr.hi
		}
		if !cont {
			return b.Succs[1], nil // postexit
		}
		if err := pc.execComm(pl.Comm[b.ID][0]); err != nil {
			return nil, err
		}
		return b.Succs[0], nil

	case cfg.PreHeader:
		loop := pl.LoopOf[b.ID]
		if loop == nil {
			panic("native: preheader without loop")
		}
		if err := pc.execComm(pl.Comm[b.ID][0]); err != nil {
			return nil, err
		}
		lo, err1 := pc.evalInt(loop.Do.Lo)
		hi, err2 := pc.evalInt(loop.Do.Hi)
		if err1 != nil {
			return nil, err1
		}
		if err2 != nil {
			return nil, err2
		}
		step := 1
		if loop.Do.Step != nil {
			s, err := pc.evalInt(loop.Do.Step)
			if err != nil {
				return nil, err
			}
			if s == 0 {
				return nil, fmt.Errorf("native: zero loop step at %s", loop.Do.Pos)
			}
			step = s
		}
		fr := pc.frames[loop]
		if fr == nil {
			fr = &frame{}
			pc.frames[loop] = fr
		}
		fr.lo, fr.hi, fr.step = lo, hi, step
		empty := lo > hi
		if step < 0 {
			empty = lo < hi
		}
		if empty {
			return b.Succs[1], nil // zero-trip edge
		}
		return b.Succs[0], nil

	default:
		if err := pc.execComm(pl.Comm[b.ID][0]); err != nil {
			return nil, err
		}
		for k, st := range b.Stmts {
			if err := pc.execStmt(st); err != nil {
				return nil, err
			}
			if err := pc.execComm(pl.Comm[b.ID][k+1]); err != nil {
				return nil, err
			}
		}
		if b.Branch != nil {
			v, err := pc.evalCond(b)
			if err != nil {
				return nil, err
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

// execStmt executes one assignment. Distributed SUMs in the RHS are
// statement-level collectives: every processor participates before any
// evaluation, exactly where the simulator's rendezvous sits.
func (pc *proc) execStmt(st *cfg.Stmt) error {
	si := pc.eng.pl.Info[st]
	if si.HasSum {
		clear(pc.sumMemo)
		if err := pc.precomputeSums(si.DistSums); err != nil {
			return err
		}
	}
	as := st.Assign

	if si.LHS == nil {
		// Scalar target: every processor computes the replicated value
		// locally (determinism makes the copies identical).
		v, err := pc.eval(as.RHS)
		if err != nil {
			return err
		}
		pc.scalars[as.LHS.Name] = v
		return nil
	}

	am := si.LHS
	idx, off, err := pc.lhsIndex(as, am)
	if err != nil {
		return err
	}

	if am.Dist == nil {
		// Replicated-array store: the single shared row 0 is written by
		// processor 0 alone, inside a pair of barriers that separate
		// the write from every other processor's reads in program
		// order.
		v, err := pc.eval(as.RHS)
		if err != nil {
			return err
		}
		if err := pc.barrier(); err != nil {
			return err
		}
		if pc.p == 0 {
			am.StoreOwner(off, 0, v)
		}
		return pc.barrier()
	}

	// Owner-computes: the owner evaluates from its own rows and stores
	// into its own row; every other processor kills its stale copy in
	// its own validity plane (same program point, own row only — no
	// cross-row writes anywhere).
	owner := am.OwnerInto(idx, pc.cbuf[:am.Dist.Grid.Rank()])
	if owner == pc.p {
		v, err := pc.eval(as.RHS)
		if err != nil {
			return err
		}
		am.StoreOwner(off, owner, v)
	} else {
		am.Valid[pc.p][off] = false
	}
	return nil
}

// lhsIndex evaluates the LHS subscripts into the per-proc scratch
// (valid until the next statement) and their offset into am.
func (pc *proc) lhsIndex(as *ast.AssignStmt, am *runtime.ArrayMem) ([]int, int, error) {
	idx := pc.lhsidx[:len(as.LHS.Subs)]
	for i, sub := range as.LHS.Subs {
		if sub.Kind != ast.SubExpr {
			return nil, 0, fmt.Errorf("native: unscalarized section on LHS at %s", as.Pos)
		}
		x, err := pc.evalInt(sub.X)
		if err != nil {
			return nil, 0, err
		}
		idx[i] = x
	}
	off, err := am.CheckedOffset(idx, as.LHS.Pos)
	return idx, off, err
}

// evalCond evaluates a branch condition. Conditions over scalar or
// replicated data are evaluated locally (identical on every
// processor); conditions reading distributed data run their SUM
// collectives, then processor 0 evaluates its own view and the taken
// edge descends the broadcast tree so control flow cannot diverge.
func (pc *proc) evalCond(b *cfg.Block) (bool, error) {
	clear(pc.sumMemo)
	cond := b.Branch.Cond
	if !pc.eng.pl.CondSync[b.ID] {
		v, err := pc.eval(cond)
		return v != 0, err
	}
	if err := pc.precomputeSums(pc.eng.pl.CondSums[b.ID]); err != nil {
		return false, err
	}
	var v float64
	if pc.p == 0 {
		var err error
		if v, err = pc.eval(cond); err != nil {
			return false, err
		}
	}
	if pc.ring != nil {
		// Condition agreement happens outside any placed group.
		pc.evStep, pc.evSite = -1, -1
		pc.evSend, pc.evRecv = prof.PhaseTreeWait, prof.PhaseTreeWait
	}
	v, err := pc.bcastValue(v)
	return v != 0, err
}

func (pc *proc) evalInt(e ast.Expr) (int, error) {
	return pc.eng.pl.A.Unit.EvalIntEnv(e, pc.ienv)
}

// eval evaluates an expression from this processor's point of view,
// mirroring the simulator's evalOn case for case so every
// floating-point operation happens in the same order.
func (pc *proc) eval(e ast.Expr) (float64, error) {
	switch e := e.(type) {
	case *ast.NumLit:
		return e.Value, nil
	case *ast.Ident:
		if v, ok := pc.ienv[e.Name]; ok {
			return float64(v), nil
		}
		if v, ok := pc.scalars[e.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("native: unbound scalar %q", e.Name)
	case *ast.UnaryExpr:
		v, err := pc.eval(e.X)
		return -v, err
	case *ast.BinExpr:
		x, err := pc.eval(e.X)
		if err != nil {
			return 0, err
		}
		y, err := pc.eval(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case ast.Add:
			return x + y, nil
		case ast.Sub_:
			return x - y, nil
		case ast.Mul:
			return x * y, nil
		case ast.Div:
			return x / y, nil
		case ast.Pow:
			return math.Pow(x, y), nil
		case ast.CmpLt:
			return b2f(x < y), nil
		case ast.CmpGt:
			return b2f(x > y), nil
		case ast.CmpLe:
			return b2f(x <= y), nil
		case ast.CmpGe:
			return b2f(x >= y), nil
		case ast.CmpEq:
			return b2f(x == y), nil
		case ast.CmpNe:
			return b2f(x != y), nil
		}
		return 0, fmt.Errorf("native: bad operator %v", e.Op)
	case *ast.Ref:
		am := pc.eng.pl.RefArr[e]
		if am == nil {
			if v, ok := pc.ienv[e.Name]; ok {
				return float64(v), nil
			}
			return pc.scalars[e.Name], nil
		}
		// Subscripts evaluate through the integer environment (no
		// float recursion), so a stack-disciplined scratch keeps this
		// per-element path allocation-free.
		base := len(pc.idxstack)
		for _, sub := range e.Subs {
			if sub.Kind != ast.SubExpr {
				pc.idxstack = pc.idxstack[:base]
				return 0, fmt.Errorf("native: section read outside SUM at %s", e.Pos)
			}
			x, err := pc.evalInt(sub.X)
			if err != nil {
				pc.idxstack = pc.idxstack[:base]
				return 0, err
			}
			pc.idxstack = append(pc.idxstack, x)
		}
		idx := pc.idxstack[base:]
		off, err := am.CheckedOffset(idx, e.Pos)
		var v float64
		if err == nil {
			v, err = am.ReadAt(pc.p, off, idx)
		}
		pc.idxstack = pc.idxstack[:base]
		return v, err
	case *ast.Call:
		if e.Func == "sum" {
			return pc.evalSum(e)
		}
		return pc.evalIntrinsic(e)
	}
	return 0, fmt.Errorf("native: cannot evaluate %T", e)
}

// evalIntrinsic evaluates a non-SUM intrinsic call, staging arguments
// on the per-proc value stack (calls nest, so the scratch is a stack,
// not a buffer).
func (pc *proc) evalIntrinsic(e *ast.Call) (float64, error) {
	base := len(pc.argstack)
	for _, a := range e.Args {
		v, err := pc.eval(a)
		if err != nil {
			pc.argstack = pc.argstack[:base]
			return 0, err
		}
		pc.argstack = append(pc.argstack, v)
	}
	args := pc.argstack[base:]
	var v float64
	var err error
	switch e.Func {
	case "sqrt":
		v = math.Sqrt(args[0])
	case "abs":
		v = math.Abs(args[0])
	case "exp":
		v = math.Exp(args[0])
	case "min":
		v = math.Min(args[0], args[1])
	case "max":
		v = math.Max(args[0], args[1])
	case "mod":
		v = math.Mod(args[0], args[1])
	default:
		err = fmt.Errorf("native: unknown intrinsic %q", e.Func)
	}
	pc.argstack = pc.argstack[:base]
	return v, err
}

// evalSum resolves a SUM call: distributed sums must already be in the
// memo (precomputeSums runs the collective at the statement level —
// finding one here means a processor would deadlock waiting for peers
// that are not summing); replicated sums are computed locally from the
// shared row in section order, matching the simulator's scan.
func (pc *proc) evalSum(e *ast.Call) (float64, error) {
	if v, ok := pc.sumMemo[e]; ok {
		return v, nil
	}
	if len(e.Args) != 1 {
		return 0, fmt.Errorf("native: sum wants 1 argument")
	}
	ref, ok := e.Args[0].(*ast.Ref)
	if !ok {
		return 0, fmt.Errorf("native: sum argument must be an array section")
	}
	am := pc.eng.pl.RefArr[ref]
	if am == nil {
		return 0, fmt.Errorf("native: sum over non-array %q", ref.Name)
	}
	if am.Dist != nil {
		return 0, fmt.Errorf("native: distributed sum of %q reached evaluation without a collective", ref.Name)
	}
	sec, err := pc.eng.pl.ConcreteRefSection(ref, am, pc.ienv)
	if err != nil {
		return 0, err
	}
	total := 0.0
	sec.Elems(func(idx []int) bool {
		total += am.Data[0][am.Offset(idx)]
		return true
	})
	pc.sumMemo[e] = total
	return total, nil
}

// precomputeSums runs the collective combine for every distributed SUM
// of a statement or condition — the plan precomputed the call list in
// WalkCalls order (identical on all processors) — filling the memo
// eval reads from.
func (pc *proc) precomputeSums(calls []plan.SumCall) error {
	for _, sc := range calls {
		if _, ok := pc.sumMemo[sc.Call]; ok {
			continue
		}
		total, err := pc.collectiveSum(sc)
		if err != nil {
			return err
		}
		pc.sumMemo[sc.Call] = total
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// genProgram is one generated benchmark input.
type genProgram struct {
	Source string
	// Main names the entry routine when the program has a subroutine
	// (compile it with CompileProgram); empty for a single routine.
	Main string
	// Stmts is the number of assignment and call statements in the
	// timestep loop, between minGenStmts and maxGenStmts.
	Stmts int
}

const (
	minGenStmts = 4
	maxGenStmts = 40
)

// generator emits well-formed mini-HPF programs over four distributed
// 2-d arrays: stencil nests with random offsets, F90 array statements,
// SUM reductions feeding a later nest, IF/ELSE around statements, and
// optionally a smoothing subroutine called twice on different arrays,
// so inlining has work to do.
type generator struct {
	rng       *rand.Rand
	b         strings.Builder
	left      int // statements still to emit
	callsLeft int // subroutine calls still to emit, part of left
	sums      int // SUM scalars used so far
	depth     int // IF nesting depth
}

var genArrays = []string{"a", "b", "c", "d"}

// maxGenSums bounds the reduction scalars a program may declare.
const maxGenSums = 40

// generate returns a program of stmts statements (minGenStmts to
// maxGenStmts) whose main routine calls the subroutine twice when
// withSub is set. The seed picks everything else; the same arguments
// always give the same bytes.
func generate(seed int64, stmts int, withSub bool) genProgram {
	g := &generator{rng: rand.New(rand.NewSource(seed))}
	g.left = stmts
	if withSub {
		g.callsLeft = 2
	}

	g.line("routine main(n, steps)")
	g.line("real a(0:n+1, 0:n+1), b(0:n+1, 0:n+1), c(0:n+1, 0:n+1), d(0:n+1, 0:n+1)")
	sums := make([]string, maxGenSums)
	for i := range sums {
		sums[i] = fmt.Sprintf("s%d", i+1)
	}
	g.line("real x, %s", strings.Join(sums, ", "))
	g.line("!hpf$ distribute (block, block) :: a, b, c, d")
	g.line("do i = 0, n + 1")
	g.line("do j = 0, n + 1")
	g.line("a(i, j) = 1 + mod(i * 3 + j, 7) * 0.25")
	g.line("b(i, j) = 1 + mod(i + j * 2, 5) * 0.5")
	g.line("c(i, j) = 0.5 + mod(i * j, 3) * 0.125")
	g.line("d(i, j) = 0")
	g.line("enddo")
	g.line("enddo")
	g.line("x = %d", g.rng.Intn(3)-1)
	g.line("do it = 1, steps")
	for g.left > 0 {
		g.stmt()
	}
	g.line("enddo")
	g.line("end")

	p := genProgram{Stmts: stmts}
	if withSub {
		g.line("")
		g.line("routine smooth(q, r, n)")
		g.line("real q(0:n+1, 0:n+1), r(0:n+1, 0:n+1)")
		g.line("do i = 1, n")
		g.line("do j = 1, n")
		g.line("r(i, j) = 0.25 * (q(i - 1, j) + q(i + 1, j) + q(i, j - 1) + q(i, j + 1))")
		g.line("enddo")
		g.line("enddo")
		g.line("end")
		p.Main = "main"
	}
	p.Source = g.b.String()
	return p
}

func (g *generator) line(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

// take claims up to want statements from the budget not reserved for
// calls and returns how many it got (at least one).
func (g *generator) take(want int) int {
	if free := g.left - g.callsLeft; want > free {
		want = free
	}
	g.left -= want
	return want
}

// free reports whether a statement other than a call can still be
// emitted.
func (g *generator) free() bool { return g.left > g.callsLeft }

// stmt emits one construct, consuming one or more statements. Calls
// land at random positions; the last statements are calls if any are
// still owed.
func (g *generator) stmt() {
	if g.callsLeft > 0 && (!g.free() || g.rng.Intn(g.left) < g.callsLeft) {
		g.left--
		g.callsLeft--
		src, dst := g.twoArrays()
		g.line("call smooth(%s, %s, n)", src, dst)
		return
	}
	switch k := g.rng.Intn(8); {
	case k == 0:
		g.arrayStmt()
	case k == 1 && g.sums < maxGenSums:
		g.reduction()
	case k == 2 && g.depth == 0 && g.left-g.callsLeft >= 2:
		g.ifElse()
	default:
		g.stencil(g.take(1 + g.rng.Intn(3)))
	}
}

// twoArrays returns two distinct arrays.
func (g *generator) twoArrays() (string, string) {
	i := g.rng.Intn(len(genArrays))
	j := (i + 1 + g.rng.Intn(len(genArrays)-1)) % len(genArrays)
	return genArrays[i], genArrays[j]
}

func (g *generator) offset() int { return g.rng.Intn(3) - 1 }

// stencil emits one loop nest holding k stencil assignments.
func (g *generator) stencil(k int) {
	g.line("do i = 1, n")
	g.line("do j = 1, n")
	for ; k > 0; k-- {
		src, dst := g.twoArrays()
		g.line("%s(i, j) = 0.4 * %s(i + %d, j + %d) + 0.3 * %s(i + %d, j + %d) + 0.2 * %s(i, j)",
			dst, src, g.offset(), g.offset(), src, g.offset(), g.offset(), dst)
	}
	g.line("enddo")
	g.line("enddo")
}

// arrayStmt emits one F90 array statement, shifted or strided.
func (g *generator) arrayStmt() {
	g.take(1)
	src, dst := g.twoArrays()
	if g.rng.Intn(2) == 0 {
		g.line("%s(2:n, 2:n) = %s(1:n-1, 1:n-1) * 0.5 + %s(2:n, 2:n) * 0.25", dst, src, dst)
	} else {
		g.line("%s(1:n:2, 1:n) = %s(1:n:2, 1:n) + 1", dst, src)
	}
}

// reduction emits a SUM over a row or the whole interior into a fresh
// scalar, and a nest that reads it.
func (g *generator) reduction() {
	g.sums++
	s := fmt.Sprintf("s%d", g.sums)
	src, dst := g.twoArrays()
	g.take(1)
	if g.rng.Intn(2) == 0 {
		g.line("%s = sum(%s(%d, 1:n))", s, src, 1+g.rng.Intn(2))
	} else {
		g.line("%s = sum(%s(1:n, 1:n))", s, src)
	}
	if !g.free() {
		return
	}
	g.take(1)
	g.line("do i = 1, n")
	g.line("do j = 1, n")
	g.line("%s(i, j) = %s(i, j) + 0.001 * %s", dst, dst, s)
	g.line("enddo")
	g.line("enddo")
}

// ifElse wraps statements in IF, half of the time with an ELSE arm.
func (g *generator) ifElse() {
	g.depth++
	g.line("if (x > 0) then")
	g.stmt()
	if g.free() && g.rng.Intn(2) == 0 {
		g.line("else")
		g.stmt()
	}
	g.line("endif")
	g.depth--
}

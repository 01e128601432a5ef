package main

import (
	"strings"
	"testing"
)

// TestGenerateDeterministic checks that the same arguments always give
// the same bytes, that different seeds give different programs, and
// that a program with the subroutine calls it twice.
func TestGenerateDeterministic(t *testing.T) {
	for stmts := minGenStmts; stmts <= maxGenStmts; stmts++ {
		for _, sub := range []bool{false, true} {
			a, b := generate(7, stmts, sub), generate(7, stmts, sub)
			if a != b {
				t.Fatalf("%d statements: two calls gave different programs", stmts)
			}
			if a.Stmts != stmts || (a.Main != "") != sub {
				t.Errorf("got %d statements, subroutine %t; want %d, %t", a.Stmts, a.Main != "", stmts, sub)
			}
			if c := generate(8, stmts, sub); stmts > minGenStmts && c.Source == a.Source {
				t.Errorf("%d statements: seeds 7 and 8 gave the same program", stmts)
			}
			if n := strings.Count(a.Source, "call smooth("); sub && n != 2 {
				t.Errorf("%d statements: %d calls of the subroutine, want 2", stmts, n)
			}
		}
	}
}

// TestGeneratedProgramsCompile compiles and places every generated
// program the workloads use, at the sizes they use, under all three
// strategies, and applies the compile workload's checks.
func TestGeneratedProgramsCompile(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	check := func(in compileInput) {
		out, err := compileOp(&in)
		if err == nil {
			err = checkCompile(&in, out, exp)
		}
		if err != nil {
			t.Fatalf("%s: %v\n%s", in.name, err, in.source)
		}
	}
	gen, cold := genPrograms, coldPool
	if testing.Short() {
		gen, cold = 10, 10
	}
	for k := 0; k < gen; k++ {
		check(genInput(k))
	}
	for k := 0; k < cold; k++ {
		check(serveColdInput(k))
	}
}

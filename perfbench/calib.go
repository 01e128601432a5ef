package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"time"
)

// The host's speed drifts by a third or more over minutes on a shared
// machine, and an operation's wall time drifts with it. So a run's
// operations are interleaved with reference parses, which sample the
// same stretches of time: a fixed Go source parsed by the standard
// library's go/parser, work much like the compiler's front end that
// does not depend on the program under test. The reported timings are
// the measured ones scaled by refParseMS over the run's median
// reference parse, that is milliseconds at the reference host's speed.
// A single window's parses are too few for a factor of its own: per
// round of the execute workload it ranged from 0.65 to 1.21 within one
// run.

// refParseMS is the median time of one reference parse on the
// reference host (2 vCPU, go1.24.0) in a calm stretch.
const refParseMS = 3.0

// refSource is the reference parse's input: 200 small functions with
// loops, branches, index expressions and map updates.
var refSource = func() string {
	var b strings.Builder
	b.WriteString("package p\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, `func f%d(a, b []int, m map[string]int) int {
	s := 0
	for i := range a {
		if a[i] > b[i%%len(b)] {
			s += a[i] * %d
		} else {
			m["k%d"] += b[i]
		}
	}
	return s + len(m)
}
`, i, i, i)
	}
	return b.String()
}()

// refParses parses refSource n+1 times and appends the times in ms of
// all but the first to into. The first parse warms the caches the
// workload's operations used.
func refParses(into []float64, n int) []float64 {
	for i := 0; i <= n; i++ {
		t0 := time.Now()
		if _, err := parser.ParseFile(token.NewFileSet(), "ref.go", refSource, 0); err != nil {
			panic(err) // refSource is fixed and valid
		}
		if i > 0 {
			into = append(into, ms(time.Since(t0)))
		}
	}
	return into
}

// speed is the scale factor from measured to reference-host
// milliseconds: refParseMS over the median of the reference parses.
// Above 1 the host ran faster than the reference, below 1 slower.
func speed(cal []float64) float64 {
	return refParseMS / median(cal)
}

package gcao_test

import (
	"errors"
	"strings"
	"testing"

	"gcao"
)

// oobRead reads, oobWrite writes and oobSum sums up to five elements
// past the end of a block-distributed array. All three compile
// (subscripts are not range-checked statically) and must fail at run
// time with a BoundsError, not a panic.
const (
	oobRead = `
routine oob(n)
real a(1:n), b(1:n)
!hpf$ distribute (block) :: a, b
do i = 1, n
a(i) = i
enddo
do i = 1, n
b(i) = a(n+5)
enddo
end
`
	oobWrite = `
routine oob(n)
real a(1:n)
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = i
enddo
a(n+5) = 1.0
end
`
	oobSum = `
routine oob(n)
real a(1:n), s
!hpf$ distribute (block) :: a
do i = 1, n
a(i) = i
enddo
s = sum(a(1:n+5))
end
`
)

func placeOOB(t *testing.T, src string, procs int) *gcao.Placed {
	t.Helper()
	c, err := gcao.Compile(src, gcao.Config{Params: map[string]int{"n": 32}, Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Place(gcao.Combine)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func checkBoundsErr(t *testing.T, err error) {
	t.Helper()
	var be *gcao.BoundsError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want a *BoundsError", err)
	}
	if be.Array != "a" || len(be.Index) != 1 || be.Index[0] != 37 {
		t.Fatalf("BoundsError = %+v, want a[37]", be)
	}
	if msg := err.Error(); !strings.Contains(msg, "a[37]") || !strings.Contains(msg, ":") {
		t.Fatalf("message %q names no array, index or position", msg)
	}
}

// TestSimulateOutOfBounds runs the sequential (P=4) and the sharded
// (P=16) simulator paths.
func TestSimulateOutOfBounds(t *testing.T) {
	for _, src := range []string{oobRead, oobWrite, oobSum} {
		for _, procs := range []int{4, 16} {
			_, err := placeOOB(t, src, procs).Simulate(gcao.SP2(), procs)
			checkBoundsErr(t, err)
		}
	}
}

func TestRunNativeOutOfBounds(t *testing.T) {
	for _, src := range []string{oobRead, oobWrite, oobSum} {
		_, err := placeOOB(t, src, 4).RunNative(4)
		checkBoundsErr(t, err)
	}
}

package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"

	"gcao"
	"gcao/internal/bench"
	"gcao/internal/core"
)

//go:embed expected.json
var expectedJSON []byte

// kindCounts is one placement's static call-site counts in Fig. 10(a)'s
// two columns: NNC (every non-reduction kind) and SUM.
type kindCounts map[string]int

// expected is the hand-written expected file kept with the benchmark.
type expected struct {
	Fig10a []struct {
		Routine string     `json:"routine"`
		Procs   int        `json:"procs"`
		Orig    kindCounts `json:"orig"`
		Nored   kindCounts `json:"nored"`
		Comb    kindCounts `json:"comb"`
	} `json:"fig10a"`
	Sources map[string]string `json:"sources"`
}

func loadExpected() (*expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &e, nil
}

// fig10Counts returns the expected counts of routine at procs under
// the strategy, or nil when the file has no such row.
func (e *expected) fig10Counts(routine string, procs int, s gcao.Strategy) kindCounts {
	for _, r := range e.Fig10a {
		if r.Routine != routine || r.Procs != procs {
			continue
		}
		switch s {
		case gcao.Vectorize:
			return r.Orig
		case gcao.EarliestRedundancy:
			return r.Nored
		default:
			return r.Comb
		}
	}
	return nil
}

// checkFig10 compares a placement's counts with the expected row.
func (e *expected) checkFig10(routine string, procs int, s gcao.Strategy, p *gcao.Placed) error {
	want := e.fig10Counts(routine, procs, s)
	if want == nil {
		return fmt.Errorf("%s P=%d: no Fig. 10(a) row in expected.json", routine, procs)
	}
	if got := fig10Kinds(p.MessageCounts()); !maps.Equal(got, want) {
		return fmt.Errorf("%s P=%d %s: counts %v, expected %v", routine, procs, s, got, want)
	}
	return nil
}

// fig10Kinds folds placed counts by kind into NNC and SUM.
func fig10Kinds(counts map[core.CommKind]int) kindCounts {
	out := kindCounts{}
	for k, n := range counts {
		if n == 0 {
			continue
		}
		if k == core.KindReduce {
			out["SUM"] += n
		} else {
			out["NNC"] += n
		}
	}
	return out
}

// routineName names a pinned routine as bench-routine.
func routineName(pr *bench.Program) string { return pr.Bench + "-" + pr.Routine }

// pinnedPrograms returns the six Fig. 10(a) routines and one error per
// source whose SHA-256 differs from the expected file.
func (e *expected) pinnedPrograms() ([]*bench.Program, []error) {
	progs := bench.Programs()
	var errs []error
	for _, pr := range progs {
		sum := sha256.Sum256([]byte(pr.Source))
		if got, want := hex.EncodeToString(sum[:]), e.Sources[routineName(pr)]; got != want {
			errs = append(errs, fmt.Errorf("pinned source %s: sha256 %s, expected %q", routineName(pr), got, want))
		}
	}
	return progs, errs
}

// strategies are the three compiler versions of Fig. 10.
var strategies = []gcao.Strategy{gcao.Vectorize, gcao.EarliestRedundancy, gcao.Combine}

// machineFor is the machine a processor count runs on: the paper ran
// the SP2 at P=25 and the NOW at P=8.
func machineFor(procs int) gcao.Machine {
	if procs == 8 {
		return gcao.NOW()
	}
	return gcao.SP2()
}

// genSizes are the (n, P) points generated programs compile at, in
// both the compile and serve workloads.
var genSizes = []struct{ n, procs int }{{32, 8}, {64, 25}, {96, 8}, {128, 25}}

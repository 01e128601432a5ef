package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one workload operation
// share Op; Parent indexes the enclosing span, -1 for a root.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Duration // since the tracer started
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// record adds a span timed elsewhere and returns its id.
func (t *tracer) record(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0)
	t.spans[id].End = now
	return now - t.spans[id].Start
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start - covered(t.spans, children[i])
	}
	return self
}

// covered is the length of the union of the given spans' intervals.
func covered(spans []span, ids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(ids))
	for _, id := range ids {
		iv = append(iv, [2]time.Duration{spans[id].Start, spans[id].End})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] > curE:
			total += curE - curS
			curS, curE = x[0], x[1]
		case x[1] > curE:
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeTable prints count, total and self milliseconds per span name,
// and self milliseconds per workload operation, largest self first.
func (t *tracer) writeTable(w io.Writer, ops int) {
	self := t.selfTimes()
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[i]
	}
	var list []*row
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].self != list[b].self {
			return list[a].self > list[b].self
		}
		return list[a].name < list[b].name
	})
	fmt.Fprintf(w, "%-34s %8s %12s %12s %12s\n", "layer (span)", "calls", "total_ms", "self_ms", "self_ms/op")
	for _, r := range list {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f %12.4f\n", r.name, r.n, ms(r.total), ms(r.self), ms(r.self)/float64(max(ops, 1)))
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microseconds), one thread lane per operation.
func (t *tracer) writeChrome(path, host string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op},
		})
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{
		"traceEvents": events,
		"otherData":   map[string]string{"host": host},
	}); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// traceDir holds the trace files, inside the checkout beside the
// binaries run.sh builds.
var traceDir = filepath.Join(".bench_build", "perfbench")

// finish writes the trace file and prints the self-time table.
func (t *tracer) finish(o *options, ops int) error {
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err := t.writeChrome(path, hostFacts()); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Printf("trace: %s (%d spans)\n", path, len(t.spans))
	t.writeTable(os.Stdout, ops)
	return nil
}

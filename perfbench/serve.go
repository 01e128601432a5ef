package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gcao"
)

const (
	// serveLimit is the latency limit a good request meets: several
	// times the slowest execution.
	serveLimit = 250 * time.Millisecond
	// serveBlock is the number of requests in one block of the mix.
	serveBlock = 20
	// serveWindow is the number of blocks one window's median covers,
	// about 2 s on the reference host.
	serveWindow = 25
)

// coldGenBase offsets the generated programs of cold requests from
// the compile workload's.
const coldGenBase = 1_000_000

// serveColdStmts bounds the statements of a cold request's program.
const serveColdStmts = 16

// coldPool is the number of programs cold requests go through.
const coldPool = 120

// serveColdInput is the k-th program of the cold requests' pool: a
// generated program of minGenStmts to serveColdStmts statements at
// n=32 on the NOW's 8 processors. Cold compiles then stay below the
// executions, so the tail comes from a fixed set of exec requests
// rather than from the few largest programs a seed happens to
// generate. The pool is the same for every seed and the seed picks
// the order, so every seed sends the same cold work: with a pool per
// seed, the programs' contents alone moved a run's latencies by about
// a quarter.
func serveColdInput(k int) compileInput {
	counts := serveColdStmts - minGenStmts + 1
	g := generate(int64(coldGenBase+k), minGenStmts+k%counts, (k/counts)%3 == 0)
	return compileInput{
		name:   fmt.Sprintf("cold/%d/%dstmts", k, g.Stmts),
		source: g.Source, main: g.Main,
		params: map[string]int{"n": 32, "steps": 2},
		procs:  8, machine: gcao.NOW(),
	}
}

type reqKind int

const (
	warmReq reqKind = iota // a Fig. 10(a) routine the cache already holds
	coldReq                // a unique generated program
	execReq                // a small program executed on the simulator or natively
)

var kindNames = []string{"warm", "cold", "exec"}

// serveRequest is one request of the schedule, encoded at set-up.
type serveRequest struct {
	kind reqKind
	body []byte
	// want is the library's counts for the same input, keyed by
	// strategy; nil for cold requests, whose check is structural.
	want   map[string]map[string]int
	all    bool // strategy "all"
	native bool // backend "native"
}

// compileRequest mirrors gcaod's POST /compile body.
type compileRequest struct {
	Source   string         `json:"source"`
	Main     string         `json:"main,omitempty"`
	Params   map[string]int `json:"params"`
	Procs    int            `json:"procs"`
	Strategy string         `json:"strategy,omitempty"`
	Machine  string         `json:"machine,omitempty"`
	Estimate bool           `json:"estimate,omitempty"`
	Simulate bool           `json:"simulate,omitempty"`
	Backend  string         `json:"backend,omitempty"`
}

// compileResponse holds the fields of gcaod's response the checks
// read; the checks need only the presence of the result documents.
type compileResponse struct {
	Strategy string         `json:"strategy"`
	Counts   map[string]int `json:"counts"`
	Versions []struct {
		Strategy string         `json:"strategy"`
		Counts   map[string]int `json:"counts"`
		Estimate *struct{}      `json:"estimate"`
	} `json:"versions"`
	Estimate *struct{} `json:"estimate"`
	Simulate *struct{} `json:"simulate"`
	Native   *struct{} `json:"native"`
}

// libraryCounts compiles and places req's input in process and returns
// the counts gcaod must report, keyed by strategy name.
func libraryCounts(req compileRequest) (map[string]map[string]int, error) {
	cfg := gcao.Config{Params: req.Params, Procs: req.Procs}
	var c *gcao.Compilation
	var err error
	if req.Main != "" {
		c, err = gcao.CompileProgram(req.Source, req.Main, cfg)
	} else {
		c, err = gcao.Compile(req.Source, cfg)
	}
	if err != nil {
		return nil, err
	}
	out := map[string]map[string]int{}
	for _, s := range strategies {
		if req.Strategy != "all" && req.Strategy != s.String() {
			continue
		}
		p, err := c.Place(s)
		if err != nil {
			return nil, err
		}
		counts := map[string]int{}
		for k, n := range p.MessageCounts() {
			counts[k.String()] = n
		}
		out[s.String()] = counts
	}
	return out, nil
}

// serveMix is the seeded request mix: 75% warm requests for the six
// routines (strategy comb or all, estimate on, P=25 on the SP2 or P=8
// on the NOW), 20% unique generated programs, and 5% small executions
// at P=4, half on the native backend.
//
// Every block of serveBlock requests holds 15 warm, 4 cold and 1 exec
// request at fixed positions: the exec request first, and the cold
// ones five apart from the fourth on, so every seed sends the same mix.
// Warm requests go through the warm inputs, and cold requests through
// the cold pool, in seeded permutations; cold requests alternate
// between strategies comb and all; exec requests cycle through their
// inputs.
type serveMix struct {
	rng                  *rand.Rand
	warm, execs          []*serveRequest
	warmOrder, coldOrder []int
	n, cold, exec        int // requests, cold and exec requests so far
}

// newServeMix encodes the warm and exec inputs with the library's
// counts for them. The distinct warm and exec requests are also what
// set-up sends to prime the cache.
func newServeMix(o *options) (*serveMix, []error) {
	progs, errs := o.exp.pinnedPrograms()
	mix := &serveMix{rng: rand.New(rand.NewSource(o.seed))}
	add := func(into *[]*serveRequest, kind reqKind, req compileRequest) {
		sr, err := encode(kind, req)
		if err == nil {
			sr.want, err = libraryCounts(req)
		}
		if err != nil {
			errs = append(errs, err)
			return
		}
		*into = append(*into, sr)
	}
	for _, pr := range progs {
		for _, procs := range []int{25, 8} {
			for _, strat := range []string{"comb", "all"} {
				add(&mix.warm, warmReq, compileRequest{
					Source: pr.Source, Params: pr.Params(pr.DefaultN), Procs: procs,
					Strategy: strat, Machine: machineFor(procs).Name, Estimate: true,
				})
			}
		}
	}
	// Small executions: every routine on four processors, on both
	// backends, at sizes where one run takes tens of milliseconds.
	for _, pr := range progs {
		size := 16
		if pr.DefaultN < 64 { // the 3-d codes
			size = 8
		}
		for _, backend := range []string{"sim", "native"} {
			add(&mix.execs, execReq, compileRequest{
				Source: pr.Source, Params: pr.Params(size), Procs: 4,
				Strategy: "comb", Simulate: true, Backend: backend,
			})
		}
	}
	return mix, errs
}

// prime is the distinct warm and exec requests.
func (m *serveMix) prime() []*serveRequest {
	return append(append([]*serveRequest(nil), m.warm...), m.execs...)
}

// next returns the mix's next request.
func (m *serveMix) next() (*serveRequest, error) {
	pos := m.n % serveBlock
	m.n++
	switch {
	case pos == 0:
		m.exec++
		return m.execs[(m.exec-1)%len(m.execs)], nil
	case pos%5 == 3:
		if len(m.coldOrder) == 0 {
			m.coldOrder = m.rng.Perm(coldPool)
		}
		in := serveColdInput(m.coldOrder[0])
		m.coldOrder = m.coldOrder[1:]
		strat := "comb"
		if m.cold%2 == 1 {
			strat = "all"
		}
		m.cold++
		// The leading comment makes every source, and so every cache
		// key, unique.
		return encode(coldReq, compileRequest{
			Source: fmt.Sprintf("! request %d\n%s", m.cold, in.source), Main: in.main,
			Params: in.params, Procs: in.procs,
			Strategy: strat, Machine: in.machine.Name, Estimate: true,
		})
	default:
		if len(m.warmOrder) == 0 {
			m.warmOrder = m.rng.Perm(len(m.warm))
		}
		r := m.warm[m.warmOrder[0]]
		m.warmOrder = m.warmOrder[1:]
		return r, nil
	}
}

// encode makes a request of the body's JSON.
func encode(kind reqKind, req compileRequest) (*serveRequest, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &serveRequest{kind: kind, body: body, all: req.Strategy == "all", native: req.Backend == "native"}, nil
}

// check verifies one response: no error, status 200, and a body that
// checkResponse accepts.
func check(req *serveRequest, code int, body []byte, err error) error {
	switch {
	case err != nil:
		return err
	case code != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", code, body)
	}
	return checkResponse(req, body)
}

// checkResponse verifies one 200 response body against the request.
func checkResponse(req *serveRequest, body []byte) error {
	var resp compileResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	got := map[string]map[string]int{}
	if req.all {
		if len(resp.Versions) != len(strategies) {
			return fmt.Errorf("strategy all: %d versions, want %d", len(resp.Versions), len(strategies))
		}
		for _, v := range resp.Versions {
			if v.Estimate == nil {
				return fmt.Errorf("version %s: no estimate", v.Strategy)
			}
			got[v.Strategy] = v.Counts
		}
	} else {
		got[resp.Strategy] = resp.Counts
		if req.kind != execReq && resp.Estimate == nil {
			return fmt.Errorf("no estimate")
		}
	}
	if req.kind == execReq {
		if resp.Simulate == nil {
			return fmt.Errorf("no simulation result")
		}
		if req.native && resp.Native == nil {
			return fmt.Errorf("no native result")
		}
	}
	if req.want == nil {
		return nil
	}
	if !maps.EqualFunc(got, req.want, func(a, b map[string]int) bool { return maps.Equal(a, b) }) {
		return fmt.Errorf("message counts %v, library computes %v", got, req.want)
	}
	return nil
}

// daemon is a gcaod subprocess listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	pid  string
}

// serveCacheEntries is the daemon's cache capacity per tier. The
// closed loop's cold requests fill it within the first seconds of a
// run, as in a long-running daemon, so the daemon's peak memory does
// not depend on how many requests a run managed; with the default of
// 1024 a run reached it only after about 20 s.
const serveCacheEntries = 256

// startDaemon starts gcaod on a free loopback port, with default flags
// but for the cache capacity, and waits until /healthz answers.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-cache-entries", strconv.Itoa(serveCacheEntries))
	// Killed with this process if it dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting gcaod: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, pid: strconv.Itoa(cmd.Process.Pid)}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("gcaod not healthy after 30s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop terminates the daemon and waits for it to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// post sends one compile request and returns the status and body.
func post(c *http.Client, base string, body []byte) (int, []byte, error) {
	resp, err := c.Post(base+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// get fetches a path from the daemon.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// outcome is one request's result. Times are offsets from the run's
// start.
type outcome struct {
	kind       reqKind
	sent, done time.Duration
	bytes      int
}

func runServe(o *options) (*report, error) {
	if o.gcaod == "" {
		return nil, fmt.Errorf("-gcaod is required")
	}
	// The load generator and the daemon share one CPU. Every request
	// passes control between the two processes several times; on two
	// CPUs each pass is a wake-up of the other CPU, whose delay on a
	// shared virtual machine varies from run to run far more than the
	// work itself does. The generator's runtime gets one processor to
	// match.
	if err := pinToOneCPU(); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	mix, errs := newServeMix(o)
	rep := &report{}
	rep.failChecks(errs)
	if len(errs) > 0 {
		return rep, nil
	}

	// Set-up: daemon start to healthy, plus priming the cache with every
	// warm and exec input, repeated; the last daemon serves the run.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	_, setupS, err := medianSetup(setupReps, func() (struct{}, error) {
		if d != nil {
			d.stop()
			d = nil
		}
		var err error
		if d, err = startDaemon(o.gcaod); err != nil {
			return struct{}{}, err
		}
		client := &http.Client{}
		defer client.CloseIdleConnections()
		for _, req := range mix.prime() {
			code, body, err := post(client, d.base, req.body)
			if err := check(req, code, body, err); err != nil {
				return struct{}{}, fmt.Errorf("priming: %w", err)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}

	var before scrape
	if o.traced {
		if before, err = d.scrape(); err != nil {
			return nil, err
		}
	}

	// The closed loop: one client on one keep-alive connection sends
	// each request when the previous response has arrived and been
	// checked. Windows of serveWindow blocks are the windows of
	// stats.go, without reference parses: the latencies cross two
	// processes and the kernel's loopback path, and scaling them by the
	// parses' speed spread them more between runs than it steadied them.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var outs []outcome
	var w windows
	start := time.Now()
	for win := 0; win == 0 || time.Since(start) < o.seconds; win++ {
		w.begin()
		for blk := 0; blk < serveWindow; blk++ {
			for k := 0; k < serveBlock; k++ {
				req, err := mix.next()
				if err != nil {
					return nil, err
				}
				sent := time.Since(start)
				code, body, err := post(client, d.base, req.body)
				oc := outcome{kind: req.kind, sent: sent, done: time.Since(start), bytes: len(body)}
				err = check(req, code, body, err)
				rep.attempted++
				if err != nil {
					rep.fail(fmt.Errorf("request %d (%s): %w", len(outs), kindNames[req.kind], err))
				}
				w.op(oc.done-oc.sent, err == nil && oc.done-oc.sent <= serveLimit)
				outs = append(outs, oc)
			}
		}
		if err := w.end(); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB(d.pid)
	if err != nil {
		return nil, err
	}

	byKind := make([][]float64, len(kindNames))
	for _, oc := range outs {
		byKind[oc.kind] = append(byKind[oc.kind], ms(oc.done-oc.sent))
	}
	for k, name := range kindNames {
		fmt.Printf("serve %-4s n=%-5d p50=%.2fms p99=%.2fms max=%.2fms\n",
			name, len(byKind[k]), median(byKind[k]), quantile(byKind[k], 0.99), quantile(byKind[k], 1))
	}
	if !o.traced {
		rep.add("setup_s", setupS, "s", setupReps)
		rep.add("peak_rss_mb", rss, "MiB", 0)
		w.report(rep)
		return rep, nil
	}

	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	// One client-side span per request.
	tr := newTracer()
	for i, oc := range outs {
		tr.record(span{Name: "serve." + kindNames[oc.kind], Op: i, Parent: -1, Start: oc.sent, End: oc.done})
	}
	if err := tr.finish(o, len(outs)); err != nil {
		return nil, err
	}
	lv := layerValues{}
	serveLayers(lv, before, after, outs, byKind)
	lv.addTo(rep)
	return rep, nil
}

// scrape is one reading of gcaod's /metrics series and /debug/cache.
type scrape struct {
	series map[string]float64 // "name{labels}" → value
	cache  struct {
		Cache map[string]struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
	}
}

func (d *daemon) scrape() (scrape, error) {
	var s scrape
	text, err := d.get("/metrics")
	if err != nil {
		return s, err
	}
	s.series = map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s.series[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		return s, err
	}
	cache, err := d.get("/debug/cache")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(cache, &s.cache); err != nil {
		return s, fmt.Errorf("decoding /debug/cache: %w", err)
	}
	return s, nil
}

// delta sums after−before over the series whose key has the prefix
// and contains every one of the label matchers.
func delta(before, after scrape, prefix string, labels ...string) float64 {
	t := 0.0
	for k, v := range after.series {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(k, l)
		}
		if ok {
			t += v - before.series[k]
		}
	}
	return t
}

// serveLayers fills the gcaod layer's metrics from the scrape deltas
// and the client-side timings; lat holds the latencies by request kind.
func serveLayers(lv layerValues, before, after scrape, outs []outcome, lat [][]float64) {
	sent := float64(len(outs))
	meanMS := func(family string, labels ...string) float64 {
		n := delta(before, after, family+"_count", labels...)
		if n == 0 {
			return 0
		}
		return 1000 * delta(before, after, family+"_sum", labels...) / n
	}
	lv.set("gcaod.queue_wait.ms", meanMS("gcao_queue_wait_seconds"))
	lv.set("gcaod.http.ms", meanMS("gcao_http_request_seconds", `route="/compile"`))
	for _, ph := range gcaodPhases {
		// Per-version phases are labeled place:<version> and so on.
		sumS := delta(before, after, "gcao_phase_seconds_sum", `phase="`+ph+`"`) +
			delta(before, after, "gcao_phase_seconds_sum", `phase="`+ph+`:`)
		lv.set("gcaod.phase."+ph+".ms", 1000*sumS/sent)
	}
	for _, tier := range []string{"compile", "place"} {
		a, b := after.cache.Cache[tier], before.cache.Cache[tier]
		if lookups := (a.Hits - b.Hits) + (a.Misses - b.Misses); lookups > 0 {
			lv.set("cache."+tier+".hit_ratio", (a.Hits-b.Hits)/lookups)
		}
	}
	lv.set("gcaod.count_drift", delta(before, after, "gcao_http_requests_total", `route="/compile"`)-sent)

	bytesBy := make([][]float64, len(kindNames))
	for _, oc := range outs {
		bytesBy[oc.kind] = append(bytesBy[oc.kind], float64(oc.bytes))
	}
	lv.set("serve.warm.ms_p50", median(lat[warmReq]))
	lv.set("serve.cold.ms_p50", median(lat[coldReq]))
	lv.set("serve.exec.ms_p50", median(lat[execReq]))
	lv.set("http.resp_bytes.warm", mean(bytesBy[warmReq]))
	lv.set("http.resp_bytes.cold", mean(bytesBy[coldReq]))
}

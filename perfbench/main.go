// Command perfbench is the repository's end-to-end benchmark. It runs one
// closed-loop workload through an in-process deployment on loopback sockets
// (lean TDP client → tdp.Serve → gateway → pool → ResilientDriver →
// NetworkDriver → cwp.Serve → engine), checks every response against a
// reference answer, and prints its metrics as one JSON line, the last line
// of standard output:
//
//	perfbench --workload customer_mix --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the separate
// traced passes and reports the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc/pool"
)

// setupRuns is how often a timed run sets the stack up; setup_s is the
// median, and the last setup serves the timed phase.
const setupRuns = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Correct = false
	}
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail marks the run incorrect and says why on standard error.
func (r *result) fail(what string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	r.Correct = false
}

func main() {
	name := flag.String("workload", "", "workload: customer_mix, etl_writes or wide_scan")
	seed := flag.Int64("seed", 1, "seed the workload's requests are derived from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced passes and reports per-layer metrics instead")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	host := newHostRecord()
	host.CalibBefore = calibrate()
	var res *result
	if *traced == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runTimed(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatal(err)
	}
	host.CalibAfter = calibrate()
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// prepare loads a reference backend, derives the run's requests from the
// seed, and records every request's answer on the reference gateway. None
// of this is part of the measured setup.
func prepare(w *workload, seed int64) (*plan, reference, error) {
	eng := engine.New(dialect.CloudA())
	if err := w.load(eng.NewSession()); err != nil {
		return nil, nil, fmt.Errorf("load: %w", err)
	}
	p, err := w.plan(seed, eng)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: %w", err)
	}
	st, err := startStack(eng, referenceStack, 0, nil)
	if err != nil {
		return nil, nil, err
	}
	defer st.close()
	sessions, err := logon(st, len(p.warmup), nil)
	if err != nil {
		return nil, nil, err
	}
	defer logoff(sessions)
	ref := reference{}
	for _, sql := range w.provision {
		resp, err := sessions[0].c.do(sql)
		if err == nil {
			err = ref.record(sql, resp)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("reference provisioning: %w", err)
		}
	}
	for i, s := range sessions {
		for _, sql := range flatten(p.warmup[i]) {
			resp, err := s.c.do(sql)
			if err == nil {
				err = ref.record(sql, resp)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("reference: %w", err)
			}
		}
	}
	for _, seq := range p.seqs {
		for _, sql := range flatten(seq) {
			if _, ok := ref[sql]; !ok {
				return nil, nil, fmt.Errorf("plan has no reference answer for %.80q", sql)
			}
		}
	}
	return p, ref, nil
}

func userName(i int) string { return fmt.Sprintf("bench%d", i) }

// logon opens n sessions, session i replaying seqs[i] when seqs is given.
func logon(st *stack, n int, seqs [][]unit) ([]*session, error) {
	var out []*session
	for i := 0; i < n; i++ {
		user := userName(i)
		c, err := dialClient(st.feAddr, user)
		if err != nil {
			logoff(out)
			return nil, err
		}
		s := &session{user: user, c: c}
		if seqs != nil {
			s.units = seqs[i]
		}
		out = append(out, s)
	}
	return out, nil
}

func logoff(sessions []*session) {
	for _, s := range sessions {
		s.c.close()
	}
}

// rig is a measured stack with its sessions logged on, provisioned and
// warmed up.
type rig struct {
	st       *stack
	sessions []*session
	rows     map[string]int // backend row counts after setup
	checked  int
	failed   int
}

// setup is the measured set-up: backend load, gateway start, logon,
// provisioning DDL and a fixed-count warm-up that fills the caches.
func setup(w *workload, p *plan, ref reference, tr *tracer, lockstep bool) (*rig, error) {
	eng := engine.New(dialect.CloudA())
	if err := w.load(eng.NewSession()); err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	st, err := startStack(eng, measuredStack, w.poolSize, tr)
	if err != nil {
		return nil, err
	}
	sessions, err := logon(st, len(p.seqs), p.seqs)
	if err != nil {
		st.close()
		return nil, err
	}
	r := &rig{st: st, sessions: sessions}
	for _, sql := range w.provision {
		resp, err := sessions[0].c.do(sql)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("provisioning: %w", err)
		}
		r.checked++
		if err := ref.check(sql, resp); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: provisioning mismatch: %v\n", err)
			r.failed++
		}
	}
	// Every session runs as many warm-up units as the longest list, a
	// shorter list starting over, so lockstep sessions always have a turn.
	for i, s := range sessions {
		s.units = p.warmup[i]
	}
	ph, err := drive(sessions, ref, driveSpec{units: maxLen(p.warmup), lockstep: lockstep})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for i, s := range sessions {
		s.units, s.pos = p.seqs[i], 0
	}
	r.checked += ph.attempted
	r.failed += ph.failed
	if r.rows, err = st.rowCounts(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func maxLen(seqs [][]unit) int {
	n := 0
	for _, s := range seqs {
		n = max(n, len(s))
	}
	return n
}

func (r *rig) close() {
	logoff(r.sessions)
	r.st.close()
}

// runTimed is the end-to-end run: reference, repeated setup, then one
// untraced timed phase of the given length.
func runTimed(w *workload, seed int64, dur time.Duration) (*result, error) {
	t0 := time.Now()
	p, ref, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	prepS := time.Since(t0).Seconds()
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setupS []float64
	var r *rig
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		if r, err = setup(w, p, ref, nil, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		res.count(r.checked, r.failed)
	}
	defer r.close()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph, err := drive(r.sessions, ref, driveSpec{until: time.Now().Add(dur)})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	res.count(ph.attempted, ph.failed)
	if err := r.st.invariants(r.rows); err != nil {
		res.fail("end-of-run invariants", err)
	}
	res.set("setup_s", median(setupS), "s")
	blocks := blockRates(ph.reqs, ph.elapsed)
	res.set("throughput_rps", median(blocks), "1/s")
	lat := ph.latMs()
	res.set("latency_p50_ms", median(lat), "ms")
	res.set("latency_tail_ms", tailLatency(lat, w.tail), "ms")
	res.set("first_row_p50_ms", median(ph.firstRowMs), "ms")
	res.set("alloc_kb_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(ph.attempted), "KiB")
	fmt.Printf("samples %s: reference=%.2fs setups=%d %.3f requests=%d row_requests=%d tail=p%g elapsed=%.2fs blocks=%.0f\n",
		w.name, prepS, len(setupS), setupS, ph.attempted, len(ph.firstRowMs), 100*w.tail, ph.elapsed.Seconds(),
		blocks)
	return res, nil
}

// counters is what a counted pass reads from the program before and after.
type counters struct {
	gw   hyperq.MetricsSnapshot
	pool pool.Stats
	mem  runtime.MemStats
}

func (r *rig) counters() counters {
	c := counters{gw: r.st.gw.MetricsSnapshot(), pool: r.st.pool.Stats()}
	runtime.ReadMemStats(&c.mem)
	return c
}

// pass is one counted pass of a traced run.
type pass struct {
	ph            *phase
	before, after counters
	peakKB        float64
}

// countedPass sets up a stack and drives a fixed number of units.
func countedPass(w *workload, p *plan, ref reference, tr *tracer, res *result) (*pass, *rig, error) {
	r, err := setup(w, p, ref, tr, w.lockstep)
	if err != nil {
		return nil, nil, err
	}
	res.count(r.checked, r.failed)
	runtime.GC()
	ps := &pass{before: r.counters()}
	if tr != nil {
		tr.on.Store(true)
	}
	ps.ph, err = drive(r.sessions, ref, driveSpec{units: w.tracedUnits, lockstep: w.lockstep, tr: tr})
	if tr != nil {
		tr.on.Store(false)
	}
	ps.after = r.counters()
	if err != nil {
		r.close()
		return nil, nil, err
	}
	res.count(ps.ph.attempted, ps.ph.failed)
	ps.peakKB = float64(r.st.gw.ResultPeakBytes()) / 1024
	if err := r.st.invariants(r.rows); err != nil {
		res.fail("end-of-pass invariants", err)
	}
	return ps, r, nil
}

// runTraced is the per-layer run: an untraced counted pass, the same pass
// on a fresh stack whose pool drives the backend through the timing driver,
// then direct calls into each layer. Both passes run the same requests from
// the same state, so their code-path counters must agree.
func runTraced(w *workload, seed int64) (*result, error) {
	p, ref, err := prepare(w, seed)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	plain, r1, err := countedPass(w, p, ref, nil, res)
	if err != nil {
		return nil, err
	}
	r1.close()
	users := make([]string, len(p.seqs))
	for i := range users {
		users[i] = userName(i)
	}
	tr := newTracer(users)
	traced, r2, err := countedPass(w, p, ref, tr, res)
	if err != nil {
		return nil, err
	}
	defer r2.close()
	if err := samePaths(plain, traced); err != nil {
		res.fail("traced pass took other code paths", err)
	}
	tc, err := measureTranslate(p.sample, r2.st.gw.Catalog(), tr)
	if err != nil {
		return nil, fmt.Errorf("translation layers: %w", err)
	}
	bc, err := measureBackend(r2.st.eng, r2.st.beAddr, tr.sqlB, tr)
	if err != nil {
		return nil, fmt.Errorf("backend layers: %w", err)
	}
	if err := r2.st.invariants(r2.rows); err != nil {
		res.fail("backend replay left state behind", err)
	}

	reqs := float64(plain.ph.attempted)
	d := func(f func(c counters) int64) float64 { return float64(f(plain.after) - f(plain.before)) }
	hits := d(func(c counters) int64 { return c.gw.CacheHits })
	misses := d(func(c counters) int64 { return c.gw.CacheMisses })
	bypass := d(func(c counters) int64 { return c.gw.CacheBypass })
	lookups := hits + misses + bypass
	streamed := d(func(c counters) int64 { return c.gw.StreamedResults })
	buffered := d(func(c counters) int64 { return c.gw.BufferedResults })

	res.set("parser.us_per_stmt", tc.us[lParse], "us")
	res.set("parser.alloc_kb_per_stmt", tc.parseAllocKB, "KiB")
	res.set("fingerprint.us_per_stmt", tc.us[lFingerprint], "us")
	res.set("binder.us_per_stmt", tc.us[lBind], "us")
	res.set("transform.us_per_stmt", tc.us[lTransform], "us")
	res.set("serializer.us_per_stmt", tc.us[lSerialize], "us")
	res.set("hyperq.cache_hit_ratio", ratio(hits, lookups), "ratio")
	res.set("hyperq.cache_bypass_ratio", ratio(bypass, lookups), "ratio")
	res.set("hyperq.cache_evict_per_kreq", 1000*d(func(c counters) int64 { return c.gw.CacheEvict })/reqs, "count/kreq")
	sp := summarizeSpans(tr.spans)
	res.set("hyperq.self_us_per_req", sp.selfUs/float64(sp.requests), "us")
	res.set("hyperq.overhead_pct", 100*ratio(sp.selfUs, sp.requestUs), "%")
	res.set("hyperq.result_peak_kb", plain.peakKB, "KiB")
	res.set("hyperq.streamed_ratio", ratio(streamed, streamed+buffered), "ratio")
	res.set("emulate.backend_stmts_per_req", float64(sp.backendStmts)/float64(sp.requests), "count/req")
	res.set("odbc.rtt_us_per_stmt", sp.backendUs/float64(sp.backendStmts), "us")
	res.set("odbc.retries", d(func(c counters) int64 { return c.gw.Retries })+
		float64(traced.after.gw.Retries-traced.before.gw.Retries), "count")
	res.set("pool.waits_per_kreq", 1000*d(func(c counters) int64 { return c.pool.Waits })/reqs, "count/kreq")
	res.set("pool.wait_p50_us", 1e6*histDelta(plain.before.pool.WaitSeconds, plain.after.pool.WaitSeconds).Quantile(0.5), "us")
	res.set("pool.pins_per_kreq", 1000*d(func(c counters) int64 { return c.pool.Pins })/reqs, "count/kreq")
	res.set("pool.acquires_per_req", d(func(c counters) int64 { return c.pool.Acquires })/reqs, "count/req")
	// The replayed backend statements are the traced pass's, so the
	// frontend requests of that pass are the base.
	treqs := float64(traced.ph.attempted)
	res.set("cwp.us_per_req", bc.cwpUs/treqs, "us")
	res.set("cwp.alloc_kb_per_req", bc.cwpAllocKB/treqs, "KiB")
	res.set("engine.us_per_req", bc.engineUs/treqs, "us")
	res.set("engine.alloc_kb_per_req", bc.engineAllocKB/treqs, "KiB")
	res.set("tdp.parcels_per_req", float64(plain.ph.parcels)/reqs, "count/req")
	res.set("tdp.bytes_per_req", float64(plain.ph.bytes)/reqs, "B/req")
	res.set("runtime.gc_per_kreq", 1000*float64(plain.after.mem.NumGC-plain.before.mem.NumGC)/reqs, "count/kreq")
	res.set("trace.overhead_us", 1000*(median(traced.ph.latMs())-median(plain.ph.latMs())), "us")

	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("samples %s: requests/pass=%d sample_statements=%d bound=%d backend_statements=%d spans=%d (%s)\n",
		w.name, plain.ph.attempted, tc.statements, tc.bound, bc.statements, len(tr.spans), path)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// samePaths compares the code-path counters of two counted passes.
func samePaths(a, b *pass) error {
	delta := func(p *pass) [5]int64 {
		x, y := p.before.gw, p.after.gw
		return [5]int64{y.StreamedResults - x.StreamedResults, y.BufferedResults - x.BufferedResults,
			y.CacheHits - x.CacheHits, y.CacheMisses - x.CacheMisses, y.CacheBypass - x.CacheBypass}
	}
	if da, db := delta(a), delta(b); da != db {
		return fmt.Errorf("streamed/buffered/hit/miss/bypass untraced %v, traced %v", da, db)
	}
	return nil
}

// spanSummary is what the frontend request spans and their backend child
// spans add up to. A request's gateway self time is its duration minus the
// time its backend calls took.
type spanSummary struct {
	requests, backendStmts       int
	requestUs, backendUs, selfUs float64
}

func summarizeSpans(spans []span) spanSummary {
	var s spanSummary
	child := map[int64]int64{}
	for _, sp := range spans {
		switch sp.Name {
		case "odbc.exec", "odbc.stream", "odbc.next":
			if sp.Name != "odbc.next" {
				s.backendStmts++
			}
			child[sp.Parent] += sp.End - sp.Start
			s.backendUs += float64(sp.End-sp.Start) / 1e3
		}
	}
	for _, sp := range spans {
		if sp.Name == "request" {
			s.requests++
			dur := sp.End - sp.Start
			s.requestUs += float64(dur) / 1e3
			s.selfUs += float64(dur-child[sp.ID]) / 1e3
		}
	}
	return s
}

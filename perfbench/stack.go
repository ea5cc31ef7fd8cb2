package main

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/hyperq"
	"hyperq/internal/odbc"
	"hyperq/internal/odbc/pool"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/wire/tdp"
)

// Defaults of cmd/hyperq that the measured stack keeps.
const (
	backendTimeout   = 30 * time.Second
	backendRetries   = 3
	breakerThreshold = 5
	slowQuery        = 200 * time.Millisecond
	traceRing        = 256
	sloObjective     = 0.99
	clientWriteLimit = 30 * time.Second
)

// stack is one in-process deployment over loopback sockets: the engine
// behind cwp.Serve, odbc.ResilientDriver{NetworkDriver}, a pool, the gateway
// (per-request traces and stat-statements on, as cmd/hyperq runs by
// default) and tdp.Serve.
type stack struct {
	eng    *engine.Engine
	pool   *pool.Pool
	gw     *hyperq.Gateway
	res    *odbc.ResilienceMetrics
	beAddr string
	feAddr string
	lns    []net.Listener
	serve  sync.WaitGroup
}

// stackKind selects which gateway a stack runs.
type stackKind int

const (
	measuredStack  stackKind = iota // cmd/hyperq defaults behind a pool
	referenceStack                  // no cache, no streaming, no pool: the answer key
)

// startStack serves eng through a gateway. tr, when non-nil, wraps the
// pool's inner driver in the timing driver.
func startStack(eng *engine.Engine, kind stackKind, poolSize int, tr *tracer) (*stack, error) {
	st := &stack{eng: eng, res: &odbc.ResilienceMetrics{}}
	beLn, err := st.listen()
	if err != nil {
		return nil, err
	}
	st.beAddr = beLn.Addr().String()
	st.goServe(func() error { return cwp.Serve(beLn, eng) })

	network := &odbc.NetworkDriver{Addr: st.beAddr, User: "hyperq", Password: "hyperq"}
	cfg := hyperq.Config{Target: dialect.CloudA(), Catalog: eng.Catalog().Clone()}
	switch kind {
	case referenceStack:
		cfg.Driver = network
		cfg.DisableTranslationCache = true
		cfg.DisableStreaming = true
		cfg.DisableTracing = true
		cfg.DisableStatStatements = true
	default:
		var inner odbc.Driver = &odbc.ResilientDriver{
			Inner:            network,
			Timeout:          backendTimeout,
			MaxRetries:       backendRetries,
			BreakerThreshold: breakerThreshold,
			Metrics:          st.res,
		}
		if tr != nil {
			inner = &timingDriver{inner: inner, t: tr}
		}
		st.pool, err = pool.New(pool.Config{Driver: inner, Size: poolSize})
		if err != nil {
			st.close()
			return nil, err
		}
		cfg.Driver = st.pool
		cfg.Pool = st.pool
		cfg.BackendTimeout = backendTimeout
		cfg.Resilience = st.res
		cfg.SlowQuery = slowQuery
		cfg.TraceRingSize = traceRing
		cfg.SLOObjective = sloObjective
	}
	st.gw, err = hyperq.New(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	feLn, err := st.listen()
	if err != nil {
		st.close()
		return nil, err
	}
	st.feAddr = feLn.Addr().String()
	st.goServe(func() error {
		return tdp.ServeOptions(feLn, st.gw, tdp.Options{WriteTimeout: clientWriteLimit})
	})
	return st, nil
}

func (st *stack) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.lns = append(st.lns, ln)
	return ln, nil
}

func (st *stack) goServe(serve func() error) {
	st.serve.Add(1)
	go func() {
		defer st.serve.Done()
		_ = serve() // returns once close shuts its listener
	}()
}

// close stops both servers and the pool and waits for the accept loops.
// Sessions must be logged off first.
func (st *stack) close() {
	for _, ln := range st.lns {
		ln.Close()
	}
	if st.pool != nil {
		_ = st.pool.Close()
	}
	st.serve.Wait()
}

// rowCounts reads every backend table's row count straight from the engine.
func (st *stack) rowCounts() (map[string]int, error) {
	s := st.eng.NewSession()
	out := map[string]int{}
	for _, name := range st.eng.Catalog().Tables() {
		n, err := s.RowCount(name)
		if err != nil {
			return nil, err
		}
		out[name] = n
	}
	return out, nil
}

// invariants checks the steady state a run must end in: every table back
// at its post-setup row count, no pool connection in use or pinned, no
// result bytes in flight, and no backend retries. The pool and result gauges
// settle just after the last EndRequest, so they get a short grace period.
func (st *stack) invariants(rows map[string]int) error {
	var errs []error
	got, err := st.rowCounts()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != rows[name] {
			errs = append(errs, fmt.Errorf("table %s has %d rows, %d after setup", name, got[name], rows[name]))
		}
	}
	if len(got) != len(rows) {
		errs = append(errs, fmt.Errorf("%d backend tables, %d after setup", len(got), len(rows)))
	}
	busy := func(ps pool.Stats) bool {
		return ps.InUse != 0 || ps.Pinned != 0 || st.gw.ResultInflightBytes() != 0
	}
	ps := st.pool.Stats()
	for deadline := time.Now().Add(time.Second); busy(ps) && time.Now().Before(deadline); ps = st.pool.Stats() {
		time.Sleep(5 * time.Millisecond)
	}
	if busy(ps) {
		errs = append(errs, fmt.Errorf("pool in_use=%d pinned=%d, result bytes in flight=%d",
			ps.InUse, ps.Pinned, st.gw.ResultInflightBytes()))
	}
	if n := st.res.Retries(); n != 0 {
		errs = append(errs, fmt.Errorf("%d backend retries", n))
	}
	return errors.Join(errs...)
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hyperq/internal/odbc"
	"hyperq/internal/trace"
	"hyperq/internal/wire/cwp"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's base. Req ties a span to its frontend request (or, for a
// direct layer call, to its sample statement); Parent is the id of the span
// that caused it, 0 for a root.
type span struct {
	ID     int64
	Parent int64
	Req    int64
	Name   string
	Start  int64
	End    int64
}

// tracer keeps spans in memory and the backend SQL each pooled connection
// ran. It is enabled only for the traced pass. A frontend request span's id
// doubles as its request id.
type tracer struct {
	base    time.Time
	on      atomic.Bool
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	sqlB    map[int][]string // backend connection → SQL in order
	nextCon int
	// inFlight maps a frontend user to its session's open request span.
	inFlight map[string]*atomic.Int64
}

func newTracer(users []string) *tracer {
	t := &tracer{base: time.Now(), sqlB: map[int][]string{}, inFlight: map[string]*atomic.Int64{}}
	for _, u := range users {
		t.inFlight[u] = new(atomic.Int64)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add stores a span, giving it a fresh id unless it already has one.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.nextID.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// requestOf finds the frontend request a backend call serves, through the
// user name on the gateway's per-request trace in ctx.
func (t *tracer) requestOf(ctx context.Context) int64 {
	tr := trace.FromContext(ctx)
	if tr == nil {
		return 0
	}
	if cur := t.inFlight[tr.User]; cur != nil {
		return cur.Load()
	}
	return 0
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Req, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingDriver wraps the pool's inner driver and records a span for every
// call into the backend. Its executors implement exactly the optional
// interfaces of the executors they wrap; a wrapper that hid ExecStream
// would silently move the gateway onto the buffered result path.
type timingDriver struct {
	inner odbc.Driver
	t     *tracer
}

func (d *timingDriver) Connect() (odbc.Executor, error) {
	return d.ConnectContext(context.Background())
}

func (d *timingDriver) ConnectContext(ctx context.Context) (odbc.Executor, error) {
	ex, err := odbc.ConnectContext(ctx, d.inner)
	if err != nil {
		return nil, err
	}
	_, streams := ex.(odbc.StreamExecutor)
	_, reconnects := ex.(odbc.ReconnectAware)
	_, diverges := ex.(odbc.DivergenceSource)
	if !streams || !reconnects || diverges {
		ex.Close()
		return nil, fmt.Errorf("timing driver: executor %T has interfaces the wrapper does not mirror", ex)
	}
	d.t.mu.Lock()
	id := d.t.nextCon
	d.t.nextCon++
	d.t.mu.Unlock()
	return &timingExec{inner: ex, stream: ex.(odbc.StreamExecutor), t: d.t, con: id}, nil
}

type timingExec struct {
	inner  odbc.Executor
	stream odbc.StreamExecutor
	t      *tracer
	con    int
}

// begin opens a backend span when the tracer is on.
func (e *timingExec) begin(ctx context.Context, sql string) (req, start int64, on bool) {
	if !e.t.on.Load() {
		return 0, 0, false
	}
	if sql != "" {
		e.t.mu.Lock()
		e.t.sqlB[e.con] = append(e.t.sqlB[e.con], sql)
		e.t.mu.Unlock()
	}
	return e.t.requestOf(ctx), e.t.now(), true
}

func (e *timingExec) end(name string, req, start int64) int64 {
	return e.t.add(span{Parent: req, Req: req, Name: name, Start: start, End: e.t.now()})
}

func (e *timingExec) Exec(sql string) ([]*cwp.StatementResult, error) {
	req, start, on := e.begin(context.Background(), sql)
	res, err := e.inner.Exec(sql)
	if on {
		e.end("odbc.exec", req, start)
	}
	return res, err
}

func (e *timingExec) ExecContext(ctx context.Context, sql string) ([]*cwp.StatementResult, error) {
	req, start, on := e.begin(ctx, sql)
	res, err := e.inner.ExecContext(ctx, sql)
	if on {
		e.end("odbc.exec", req, start)
	}
	return res, err
}

func (e *timingExec) ExecStream(ctx context.Context, sql string) (odbc.ResultStream, error) {
	req, start, on := e.begin(ctx, sql)
	st, err := e.stream.ExecStream(ctx, sql)
	if !on {
		return st, err
	}
	e.end("odbc.stream", req, start)
	if err != nil {
		return st, err
	}
	return &timingStream{inner: st, t: e.t, req: req}, nil
}

func (e *timingExec) OnReconnect(restore func(odbc.Executor) error) {
	e.inner.(odbc.ReconnectAware).OnReconnect(restore)
}

func (e *timingExec) Close() error { return e.inner.Close() }

// timingStream times each Next: the wait for the backend's next batch.
type timingStream struct {
	inner odbc.ResultStream
	t     *tracer
	req   int64
}

func (s *timingStream) Next(ctx context.Context) (cwp.StreamEvent, error) {
	start := s.t.now()
	ev, err := s.inner.Next(ctx)
	s.t.add(span{Parent: s.req, Req: s.req, Name: "odbc.next", Start: start, End: s.t.now()})
	return ev, err
}

func (s *timingStream) Close() error { return s.inner.Close() }

var (
	_ odbc.ContextDriver  = (*timingDriver)(nil)
	_ odbc.StreamExecutor = (*timingExec)(nil)
	_ odbc.ReconnectAware = (*timingExec)(nil)
)

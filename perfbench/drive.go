package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// session is one frontend session of the load generator.
type session struct {
	user  string
	c     *client
	units []unit
	pos   int
}

func (s *session) nextUnit() unit {
	u := s.units[s.pos%len(s.units)]
	s.pos++
	return u
}

// sample is one request's timing; offsets are from the phase start.
type sample struct {
	startNs, endNs int64
}

func (s sample) latMs() float64 { return float64(s.endNs-s.startNs) / 1e6 }

// phase collects one timed phase's samples, in completion order once the
// phase is over.
type phase struct {
	reqs       []sample
	firstRowMs []float64
	attempted  int
	failed     int
	parcels    int64
	bytes      int64
	elapsed    time.Duration
}

// latMs lists the request latencies in completion order.
func (p *phase) latMs() []float64 {
	out := make([]float64, len(p.reqs))
	for i, r := range p.reqs {
		out[i] = r.latMs()
	}
	return out
}

func (p *phase) merge(o *phase) {
	p.reqs = append(p.reqs, o.reqs...)
	p.firstRowMs = append(p.firstRowMs, o.firstRowMs...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.parcels += o.parcels
	p.bytes += o.bytes
}

// driveSpec says how long a phase runs: until a deadline, or for a fixed
// number of units per session. A session only stops between units.
// lockstep makes sessions take turns, a unit at a time.
type driveSpec struct {
	until    time.Time
	units    int
	lockstep bool
	tr       *tracer // records a span per request when non-nil
}

// maxReported bounds the mismatch messages printed per phase.
const maxReported = 5

// driver runs one phase.
type driver struct {
	ref      reference
	spec     driveSpec
	start    time.Time
	turns    []chan struct{} // lockstep: session i may send while it holds turns[i]
	quit     chan struct{}   // closed when a connection breaks
	quitOnce sync.Once
	reported atomic.Int32
}

// drive runs the sessions as closed loops and checks every response. A
// mismatch counts as a failed request; a broken connection ends the phase
// with an error.
func drive(sessions []*session, ref reference, spec driveSpec) (*phase, error) {
	d := &driver{ref: ref, spec: spec, turns: make([]chan struct{}, len(sessions)), quit: make(chan struct{})}
	for i := range d.turns {
		d.turns[i] = make(chan struct{}, 1)
	}
	d.turns[0] <- struct{}{}
	results := make([]*phase, len(sessions))
	errs := make([]error, len(sessions))
	d.start = time.Now()
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			results[i], errs[i] = d.run(i, s)
			if errs[i] != nil {
				d.quitOnce.Do(func() { close(d.quit) })
			}
		}(i, s)
	}
	wg.Wait()
	out := &phase{elapsed: time.Since(d.start)}
	for _, r := range results {
		out.merge(r)
	}
	sort.Slice(out.reqs, func(i, j int) bool { return out.reqs[i].endNs < out.reqs[j].endNs })
	return out, errors.Join(errs...)
}

// run is session i's closed loop.
func (d *driver) run(i int, s *session) (*phase, error) {
	ph := &phase{reqs: make([]sample, 0, 1<<16)}
	for k := 0; ; k++ {
		if d.spec.units > 0 && k >= d.spec.units || d.spec.units == 0 && !time.Now().Before(d.spec.until) {
			return ph, nil
		}
		if d.spec.lockstep {
			select {
			case <-d.turns[i]:
			case <-d.quit:
				return ph, nil
			}
		}
		for _, sql := range s.nextUnit() {
			if err := d.request(s, ph, sql); err != nil {
				return ph, fmt.Errorf("session %s: %.60q: %w", s.user, sql, err)
			}
		}
		if d.spec.lockstep {
			d.turns[(i+1)%len(d.turns)] <- struct{}{}
		}
	}
}

// request sends one request, records it on ph and checks its response.
func (d *driver) request(s *session, ph *phase, sql string) error {
	tr := d.spec.tr
	var reqID, t0 int64
	if tr != nil {
		reqID = tr.nextID.Add(1)
		tr.inFlight[s.user].Store(reqID)
		t0 = tr.now()
	}
	resp, err := s.c.do(sql)
	if tr != nil {
		tr.add(span{ID: reqID, Req: reqID, Name: "request", Start: t0, End: tr.now()})
	}
	if err != nil {
		return err
	}
	end := int64(time.Since(d.start))
	ph.attempted++
	ph.reqs = append(ph.reqs, sample{startNs: end - int64(resp.elapsed), endNs: end})
	if resp.records > 0 {
		ph.firstRowMs = append(ph.firstRowMs, float64(resp.firstRow)/1e6)
	}
	ph.parcels += int64(resp.parcels)
	ph.bytes += resp.bytes
	if err := d.ref.check(sql, resp); err != nil {
		ph.failed++
		if d.reported.Add(1) <= maxReported {
			fmt.Fprintf(os.Stderr, "perfbench: mismatch: %v\n", err)
		}
	}
	return nil
}

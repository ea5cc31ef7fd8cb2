// Package hyperq is a hermetic stub of the gateway's result-memory
// accountant for leakpair fixtures: a bool acquire whose obligation exists
// only on the success branch.
package hyperq

type Gateway struct{}

func (g *Gateway) acquireResultBytes(n int64) bool { return true }
func (g *Gateway) releaseResultBytes(n int64)      {}

type item struct {
	bytes int64
}

func work() {}

// fetchLeaky sheds on the failure branch (no obligation there) but loses
// the reservation when shipping fails.
func (g *Gateway) fetchLeaky(size int64, ship func(item) bool) {
	if !g.acquireResultBytes(size) {
		return
	}
	if !ship(item{}) {
		return // want `result-memory reservation from acquireResultBytes is unbalanced on this path`
	}
	g.releaseResultBytes(size)
}

// fetchHandoff stores the reserved size into the in-flight item — the
// pipeline stage that drains the item releases the bytes, so the store is
// the handoff.
func (g *Gateway) fetchHandoff(size int64, out chan item) {
	if !g.acquireResultBytes(size) {
		return
	}
	it := item{bytes: size}
	out <- it
}

// fetchPositive consumes the bool without negation: the obligation lives in
// the then-branch only.
func (g *Gateway) fetchPositive(size int64) {
	if g.acquireResultBytes(size) {
		g.releaseResultBytes(size)
	}
}

// fetchDeferred releases via defer, covering every path.
func (g *Gateway) fetchDeferred(size int64) {
	if !g.acquireResultBytes(size) {
		return
	}
	defer g.releaseResultBytes(size)
	work()
}

// Session and stageTimer stub the gateway's per-stage recording call: begin
// yields a timer that end or endWith must close on every path.
type Session struct{}

type stageTimer struct{ sp *int }

func (s *Session) begin(stage int) stageTimer  { return stageTimer{} }
func (st stageTimer) end()                     {}
func (st stageTimer) endWith(d int64)          {}
func (st stageTimer) elapsed() int64           { return 0 }
func (s *Session) noteCache(sp *int, tier int) {}

// stageLeaky returns early without closing the timer: the stage's span and
// time are lost.
func (s *Session) stageLeaky(fail bool) error {
	st := s.begin(0)
	if fail {
		return nil // want `stage timer from begin is not released on this path`
	}
	st.end()
	return nil
}

// stageEnded closes the timer before the branch; field reads and other
// methods on it are benign.
func (s *Session) stageEnded(fail bool) error {
	st := s.begin(0)
	s.noteCache(st.sp, 1)
	st.end()
	if fail {
		return nil
	}
	return nil
}

// stageCarved closes a deferred timer with an externally measured duration.
func (s *Session) stageCarved() {
	ex := s.begin(5)
	defer func() {
		ex.endWith(ex.elapsed())
	}()
	work()
}

package hyperq

import (
	"sync/atomic"
	"time"

	"hyperq/internal/metrics"
	"hyperq/internal/trace"
	"hyperq/internal/wstats"
)

// stageTimer times one pipeline stage of the current request. begin opens
// it; end (or endWith) closes it and records the stage in every sink at
// once: the trace span, the gateway's stage histogram and the request's
// per-fingerprint time split. With tracing off only the span is dropped.
type stageTimer struct {
	s     *Session
	stage metrics.Stage
	sp    *trace.Span
	t0    time.Time
}

// begin opens a stage of the current request.
func (s *Session) begin(stage metrics.Stage) stageTimer {
	return stageTimer{s: s, stage: stage, sp: s.tr.Start(stage.String()), t0: time.Now()}
}

// elapsed is the wall-clock time since begin.
func (st stageTimer) elapsed() time.Duration { return time.Since(st.t0) }

// end closes the stage with its wall-clock time.
func (st stageTimer) end() { st.endWith(st.elapsed()) }

// endWith closes the stage with an externally measured duration: the
// streamed pipeline's convert time, accumulated on another goroutine, and
// the execute time left once that share is carved out.
func (st stageTimer) endWith(d time.Duration) {
	st.s.g.stages.Stage(st.stage).ObserveDuration(d)
	st.s.ro.stageNs[st.stage] += int64(d)
	st.sp.EndWithDuration(d)
}

// busyTime accumulates the time concurrent pipeline work spends in a stage
// (the streamed convert stage runs on its own goroutine, inside the execute
// stage's wall-clock) for a later endWith.
type busyTime struct{ ns atomic.Int64 }

// since adds the time elapsed since t0.
func (b *busyTime) since(t0 time.Time) { b.ns.Add(int64(time.Since(t0))) }

func (b *busyTime) total() time.Duration { return time.Duration(b.ns.Load()) }

// cacheOutcomes names each translation-cache outcome, indexed by its wstats
// tier. The name goes to the trace and to the cache span's outcome
// attribute; the gateway counts the outcome under its tier.
var cacheOutcomes = [...]string{
	wstats.TierExactHit:       "raw-hit",
	wstats.TierFingerprintHit: "hit",
	wstats.TierMiss:           "miss",
	wstats.TierBypass:         "bypass",
}

// noteCache records the request's translation-cache outcome in every sink:
// the gateway counter, the trace, the cache span (nil when no lookup ran,
// as in macro scope) and the request's wstats tier.
func (s *Session) noteCache(sp *trace.Span, tier wstats.Tier) {
	atomic.AddInt64(&s.g.metrics.cache[tier], 1)
	if tier == wstats.TierExactHit || tier == wstats.TierFingerprintHit {
		atomic.AddInt64(&s.obsCacheHits, 1)
	}
	sp.Set("outcome", cacheOutcomes[tier])
	s.tr.SetCache(cacheOutcomes[tier])
	s.ro.tier = tier
}

package main

import (
	"math"
	"sort"
	"time"

	"hyperq/internal/metrics"
)

// percentile is the nearest-rank q-quantile of xs (q in (0,1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// throughputBlocks is how many equal blocks the timed phase is cut into;
// the reported throughput is the median block's, so a short burst of
// interference from outside the benchmark moves at most a few blocks.
const throughputBlocks = 20

// blockRates returns each block's completed requests per second. A request
// counts in every block its [start, end) interval overlaps, in proportion
// to the overlap, so blocks shorter than a request are not quantized to
// whole requests.
func blockRates(reqs []sample, elapsed time.Duration) []float64 {
	rates := make([]float64, throughputBlocks)
	block := float64(elapsed) / throughputBlocks
	for _, r := range reqs {
		s, e := float64(r.startNs), float64(r.endNs)
		if e <= s {
			continue
		}
		for i := int(s / block); i < throughputBlocks && float64(i)*block < e; i++ {
			lo, hi := math.Max(s, float64(i)*block), math.Min(e, float64(i+1)*block)
			rates[i] += (hi - lo) / (e - s)
		}
	}
	for i := range rates {
		rates[i] /= block / float64(time.Second)
	}
	return rates
}

// tailLatency is the q-quantile of lat (in completion order), taken over
// consecutive equal chunks of the requests, each holding at least ten samples beyond the quantile,
// and reported as the median chunk. A run too short for two chunks gets the
// plain quantile.
func tailLatency(lat []float64, q float64) float64 {
	chunks := min(throughputBlocks, int(float64(len(lat))*(1-q)/10))
	if chunks < 2 {
		return percentile(lat, q)
	}
	tails := make([]float64, chunks)
	for i := range tails {
		tails[i] = percentile(lat[i*len(lat)/chunks:(i+1)*len(lat)/chunks], q)
	}
	return median(tails)
}

// histDelta is the observations a histogram gained between two snapshots.
func histDelta(before, after metrics.Snapshot) metrics.Snapshot {
	d := metrics.Snapshot{Bounds: after.Bounds, Counts: make([]int64, len(after.Counts)),
		Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

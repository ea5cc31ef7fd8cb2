package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"hyperq/internal/engine"
	"hyperq/internal/workload/customer"
	"hyperq/internal/workload/tpch"
)

// workload is one closed-loop traffic mix. Every workload drives at most
// two sessions (the number of CPUs the benchmark is tuned for), each
// waiting for its previous response before it sends the next request.
type workload struct {
	name string
	// sessions is the number of concurrent frontend sessions and poolSize
	// the backend connections they share.
	sessions int
	poolSize int
	// tail is the latency percentile reported as latency_tail_ms: p99 where
	// a run completes at least 1000 requests, otherwise the highest one with
	// at least ten samples beyond it.
	tail float64
	// tracedUnits is the fixed per-session unit count of each counted pass
	// of a traced run.
	tracedUnits int
	// lockstep makes the counted passes alternate sessions unit by unit. customer_mix sessions share request texts, so free-running
	// sessions would fill and evict the translation cache in a different
	// order each time, and the cache counters of the untraced and the traced
	// pass could not be compared exactly. Its pool has a connection per
	// session, so a pinned session never blocks the other's turn.
	lockstep bool
	// load fills a fresh backend engine.
	load func(s *engine.Session) error
	// provision is gateway DDL run through session 0 during setup.
	provision []string
	// plan derives the requests from the seed; eng is a loaded engine the
	// plan may read data from.
	plan func(seed int64, eng *engine.Engine) (*plan, error)
}

// unit is a run of requests a session never stops inside: a transaction
// or a volatile table's life, so a run that ends leaves no state behind.
type unit []string

// plan is the seeded input of one run.
type plan struct {
	// seqs are the per-session units, replayed in order and from the start
	// again when a run outlasts them.
	seqs [][]unit
	// warmup are the per-session units run at the end of setup. They
	// cover every distinct unit of seqs once, so the timed phase starts
	// with every translation cached and its mix does not drift as it runs.
	// The reference gateway runs them too, to record every answer.
	warmup [][]unit
	// sample is the statement sample for the direct layer calls.
	sample []string
}

var workloads = []*workload{customerMix, etlWrites, wideScan}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// seedRand gives each (seed, stream) pair its own generator.
func seedRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(stream)))
}

// flatten lists the requests of units in order.
func flatten(units []unit) []string {
	var out []string
	for _, u := range units {
		out = append(out, u...)
	}
	return out
}

// distinctUnits keeps the first occurrence of every unit, in order.
func distinctUnits(units []unit) []unit {
	seen := map[string]bool{}
	var out []unit
	for _, u := range units {
		key := strings.Join(u, "\x00")
		if !seen[key] {
			seen[key] = true
			out = append(out, u)
		}
	}
	return out
}

func execAll(s *engine.Session, sqls ...string) error {
	for _, sql := range sqls {
		if _, err := s.ExecSQL(sql); err != nil {
			return fmt.Errorf("%.60q: %w", sql, err)
		}
	}
	return nil
}

// customerMix replays the paper's §7.1 customer traffic: one session
// samples Workload 1 (Health) and the other Workload 2 (Telco), each
// weighted by the queries' repetition counts.
var customerMix = &workload{
	name:        "customer_mix",
	sessions:    2,
	poolSize:    2,
	tail:        0.99,
	tracedUnits: 3000,
	lockstep:    true,
	load: func(s *engine.Session) error {
		return execAll(s, customer.SchemaDDL...)
	},
	provision: customer.GatewaySetup,
	plan: func(seed int64, _ *engine.Engine) (*plan, error) {
		const perSession = 80000
		p := &plan{}
		for i, spec := range []customer.Spec{customer.Workload1(), customer.Workload2()} {
			units := sampleCustomer(customer.Generate(spec), perSession, seedRand(seed, i))
			p.seqs = append(p.seqs, units)
			p.warmup = append(p.warmup, distinctUnits(units))
			p.sample = append(p.sample, flatten(units[:1000])...)
		}
		return p, nil
	},
}

// sampleCustomer draws n units weighted by Repeats. A lone BT becomes a
// BT, ET unit so no session holds a transaction across the run.
func sampleCustomer(qs []customer.Query, n int, rng *rand.Rand) []unit {
	cum := make([]int64, len(qs))
	var total int64
	for i, q := range qs {
		total += int64(q.Repeats)
		cum[i] = total
	}
	out := make([]unit, n)
	for i := range out {
		r := rng.Int63n(total)
		q := qs[sort.Search(len(cum), func(i int) bool { return cum[i] > r })]
		out[i] = unit{q.SQL}
		if strings.EqualFold(strings.TrimSpace(q.SQL), "BT") {
			out[i] = append(out[i], "ET")
		}
	}
	return out
}

// etlWrites runs state-neutral write cycles beside reads. Both sessions
// share one backend connection; BT/ET and volatile tables pin it, so the
// other session queues in the pool.
var etlWrites = &workload{
	name:        "etl_writes",
	sessions:    2,
	poolSize:    1,
	tail:        0.99,
	tracedUnits: 100,
	load: func(s *engine.Session) error {
		for _, t := range etlTables {
			if err := execAll(s, fmt.Sprintf("CREATE TABLE %s (k INTEGER NOT NULL, v INTEGER NOT NULL, note VARCHAR(40))", t)); err != nil {
				return err
			}
			var vals []string
			for k := 1; k <= etlBaseRows; k++ {
				vals = append(vals, fmt.Sprintf("(%d, %d, 'base %d')", k, k*7%101, k))
			}
			if err := execAll(s, fmt.Sprintf("INSERT INTO %s VALUES %s", t, strings.Join(vals, ", "))); err != nil {
				return err
			}
		}
		return nil
	},
	plan: func(seed int64, _ *engine.Engine) (*plan, error) {
		const cycles = 32
		p := &plan{}
		for i, t := range etlTables {
			rng := seedRand(seed, i)
			var units []unit
			for c := 0; c < cycles; c++ {
				units = append(units, etlCycle(t, c, rng))
			}
			p.seqs = append(p.seqs, units)
			p.warmup = append(p.warmup, units)
			p.sample = append(p.sample, flatten(units)...)
		}
		return p, nil
	},
}

var etlTables = []string{"etl_a", "etl_b"}

const (
	etlBaseRows  = 200
	etlBatchRows = 8
)

// etlCycle is one write cycle on table t that leaves every table as it
// found it: a transaction inserts, updates, reads back and deletes a block
// of fresh keys, then a volatile staging table is filled, read and dropped.
func etlCycle(t string, c int, rng *rand.Rand) unit {
	lo := 1000 + c*etlBatchRows
	hi := lo + etlBatchRows - 1
	var ins []string
	for k := lo; k <= hi; k++ {
		ins = append(ins, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, 'batch %d')", t, k, rng.Intn(1000), c))
	}
	vt := "stg_" + t
	fill := 20 + rng.Intn(etlBaseRows-20)
	return unit{
		"BT",
		strings.Join(ins, "; ") + ";",
		fmt.Sprintf("UPDATE %s SET v = v + %d WHERE k BETWEEN %d AND %d", t, 1+rng.Intn(9), lo, hi),
		fmt.Sprintf("SEL k, v, note FROM %s WHERE k BETWEEN %d AND %d ORDER BY k", t, lo, hi),
		fmt.Sprintf("DELETE FROM %s WHERE k BETWEEN %d AND %d", t, lo, hi),
		"ET",
		fmt.Sprintf("CREATE VOLATILE TABLE %s (k INTEGER, v INTEGER) ON COMMIT PRESERVE ROWS", vt),
		fmt.Sprintf("INSERT INTO %s SELECT k, v FROM %s WHERE k <= %d", vt, t, fill),
		// The fill bound is repeated so the text alone fixes the answer.
		fmt.Sprintf("SEL k, v FROM %s WHERE v > %d AND k <= %d ORDER BY k", vt, rng.Intn(50), fill),
		"DROP TABLE " + vt,
	}
}

// wideScan pulls LINEITEM key-range extracts. Each range is cut to hold the
// same number of rows, so the result size, and with it the work per
// request, does not change with the seed.
var wideScan = &workload{
	name:        "wide_scan",
	sessions:    1,
	poolSize:    1,
	tail:        0.95,
	tracedUnits: 40,
	load: func(s *engine.Session) error {
		return tpch.SetupEngine(s, 0.01)
	},
	plan: func(seed int64, eng *engine.Engine) (*plan, error) {
		ranges, err := lineitemRanges(eng, seed, 8, wideRows)
		if err != nil {
			return nil, err
		}
		var units []unit
		for _, r := range ranges {
			units = append(units, unit{"SEL l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, l_extendedprice, " +
				"l_discount, l_tax, l_returnflag, l_linestatus, l_shipdate, l_commitdate, l_receiptdate, " +
				"l_shipinstruct, l_shipmode, l_comment FROM lineitem " +
				fmt.Sprintf("WHERE l_orderkey BETWEEN %d AND %d", r[0], r[1])})
		}
		return &plan{seqs: [][]unit{units}, warmup: [][]unit{units}, sample: flatten(units)}, nil
	},
}

const wideRows = 10000

// lineitemRanges picks n order-key ranges at seeded positions, each holding
// between rows and rows+6 LINEITEM rows (an order has at most 7 lines).
func lineitemRanges(eng *engine.Engine, seed int64, n, rows int) ([][2]int64, error) {
	res, err := eng.NewSession().QuerySQL("SELECT l_orderkey FROM lineitem")
	if err != nil {
		return nil, err
	}
	perKey := map[int64]int{}
	for _, r := range res.Rows {
		perKey[r[0].I]++
	}
	keys := make([]int64, 0, len(perKey))
	for k := range perKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	// last is the last start index whose range still fits.
	last, acc := len(keys)-1, 0
	for ; last >= 0 && acc < rows; last-- {
		acc += perKey[keys[last]]
	}
	if last < 0 {
		return nil, fmt.Errorf("lineitem has fewer than %d rows", rows)
	}
	rng := seedRand(seed, 0)
	out := make([][2]int64, 0, n)
	for len(out) < n {
		i := rng.Intn(last + 1)
		j, got := i, 0
		for ; got < rows; j++ {
			got += perKey[keys[j]]
		}
		out = append(out, [2]int64{keys[i], keys[j-1]})
	}
	return out, nil
}

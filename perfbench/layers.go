package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hyperq/internal/binder"
	"hyperq/internal/catalog"
	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/feature"
	"hyperq/internal/fingerprint"
	"hyperq/internal/parser"
	"hyperq/internal/serializer"
	"hyperq/internal/sqlast"
	"hyperq/internal/transform"
	"hyperq/internal/types"
	"hyperq/internal/wire/cwp"
	"hyperq/internal/xtra"
)

// layerRounds is how often the statement sample is timed; each layer
// reports its median round.
const layerRounds = 5

// Translation layers in pipeline order.
const (
	lParse = iota
	lFingerprint
	lBind
	lTransform
	lSerialize
	nLayers
)

var layerSpan = [nLayers]string{"parser.Parse", "fingerprint.Statement", "binder.Bind", "transform.Statement", "serializer.Serialize"}

// translateCosts is the per-statement time of each translation layer.
type translateCosts struct {
	us           [nLayers]float64
	parseAllocKB float64
	statements   int
	bound        int
}

// measureTranslate times parse, fingerprint, bind, transform and serialize
// over the sample, chained as the gateway chains them. A macro call is
// timed on the macro body with the call's arguments bound, the work an EXEC
// triggers. Statements the binder leaves to gateway emulation (HELP, tables
// that live only in a session) stop after fingerprinting.
func measureTranslate(sample []string, cat *catalog.Catalog, tr *tracer) (translateCosts, error) {
	target := dialect.CloudA()
	serRules := transform.SerializationStage(target)
	var tc translateCosts
	var rounds [nLayers][]float64
	for round := 0; round < layerRounds; round++ {
		var ns [nLayers]int64
		stmts, bound := 0, 0
		// timed runs f as one call into layer l; the first round also
		// records it as a span of sample statement req.
		timed := func(l int, req int64, f func() error) error {
			t0 := time.Now()
			err := f()
			d := time.Since(t0)
			ns[l] += int64(d)
			if tr != nil && round == 0 {
				end := tr.now()
				tr.add(span{Req: req, Name: layerSpan[l], Start: end - int64(d), End: end})
			}
			return err
		}
		for i, sql := range sample {
			req := int64(i + 1)
			rec := &feature.Recorder{}
			var parsed []sqlast.Statement
			if err := timed(lParse, req, func() (err error) {
				parsed, err = parser.Parse(sql, parser.Teradata, rec)
				return err
			}); err != nil {
				return tc, fmt.Errorf("parse %.60q: %w", sql, err)
			}
			for _, stmt := range parsed {
				stmts++
				_ = timed(lFingerprint, req, func() error {
					fingerprint.Statement(stmt)
					return nil
				})
				body, params, err := macroBody(stmt, cat, rec)
				if err != nil {
					return tc, err
				}
				for _, st := range body {
					b := binder.New(cat, parser.Teradata, rec)
					if params != nil {
						b.SetParams(params)
					}
					var bound0, mid xtra.Statement
					if err := timed(lBind, req, func() (err error) {
						bound0, err = b.Bind(st)
						return err
					}); err != nil {
						continue
					}
					bound++
					var rules time.Duration
					if err := timed(lTransform, req, func() (err error) {
						mid, err = transform.BindingStage().Statement(bound0, transform.NewContext(nil, rec, b.MaxColumnID()))
						if err != nil || len(serRules) == 0 {
							return err
						}
						t0 := time.Now()
						_, err = transform.New(serRules...).Statement(mid, transform.NewContext(target, rec, b.MaxColumnID()))
						rules = time.Since(t0)
						return err
					}); err != nil {
						return tc, fmt.Errorf("transform %.60q: %w", sql, err)
					}
					if err := timed(lSerialize, req, func() error {
						_, err := serializer.New(target, rec).Serialize(mid)
						return err
					}); err != nil {
						return tc, fmt.Errorf("serialize %.60q: %w", sql, err)
					}
					// Serialize re-applies the serialization-stage rules
					// already counted under transform.
					ns[lSerialize] -= int64(rules)
				}
			}
		}
		if bound == 0 {
			return tc, fmt.Errorf("no statement of the %d-request sample binds", len(sample))
		}
		per := [nLayers]int{stmts, stmts, bound, bound, bound}
		for l := range rounds {
			rounds[l] = append(rounds[l], float64(ns[l])/float64(per[l])/1e3)
		}
		tc.statements, tc.bound = stmts, bound
	}
	for l := range rounds {
		tc.us[l] = median(rounds[l])
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, sql := range sample {
		if _, err := parser.Parse(sql, parser.Teradata, &feature.Recorder{}); err != nil {
			return tc, err
		}
	}
	runtime.ReadMemStats(&after)
	tc.parseAllocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(tc.statements)
	return tc, nil
}

// macroBody returns the statements binding stmt involves: the parsed body
// and bound arguments of a macro call, or stmt itself.
func macroBody(stmt sqlast.Statement, cat *catalog.Catalog, rec *feature.Recorder) ([]sqlast.Statement, map[string]types.Datum, error) {
	ex, ok := stmt.(*sqlast.ExecStmt)
	if !ok {
		return []sqlast.Statement{stmt}, nil, nil
	}
	m, ok := cat.Macro(ex.Macro)
	if !ok || len(ex.Args) != len(m.Params) {
		return nil, nil, fmt.Errorf("macro %s: not defined for %d arguments", ex.Macro, len(ex.Args))
	}
	params := make(map[string]types.Datum, len(m.Params))
	for i, arg := range ex.Args {
		c, ok := arg.(*sqlast.Const)
		if !ok {
			return nil, nil, fmt.Errorf("macro %s: argument %d is not a literal", ex.Macro, i+1)
		}
		d, err := types.Cast(c.Val, m.Params[i].Type)
		if err != nil {
			return nil, nil, err
		}
		params[strings.ToUpper(m.Params[i].Name)] = d
	}
	body, err := parser.Parse(m.Body, parser.Teradata, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("macro %s body: %w", ex.Macro, err)
	}
	return body, params, nil
}

// backendCosts splits the backend round trip of a whole traced pass:
// engine.Session.ExecSQL alone, and cwp.Client.Exec against cwp.Serve (which
// adds the wire protocol and the tdf decode) minus the engine's share. The
// figures are totals over the pass's backend statements.
type backendCosts struct {
	engineUs, engineAllocKB, cwpUs, cwpAllocKB float64
	statements                                 int
}

// measureBackend replays the backend SQL each pooled connection ran during
// the traced pass, in order, once straight into the engine and once through
// a cwp client, each connection on its own backend session. A whole pass is
// state-neutral, so each replay is too.
func measureBackend(eng *engine.Engine, beAddr string, sqlB map[int][]string, tr *tracer) (backendCosts, error) {
	var bc backendCosts
	cons := make([]int, 0, len(sqlB))
	for con := range sqlB {
		cons = append(cons, con)
	}
	sort.Ints(cons)
	for _, con := range cons {
		bc.statements += len(sqlB[con])
	}
	if bc.statements == 0 {
		return bc, fmt.Errorf("traced pass sent no backend statements")
	}
	replay := func(name string, exec func(con int, sql string) error) (ns int64, alloc uint64, err error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, con := range cons {
			for i, sql := range sqlB[con] {
				t0 := time.Now()
				if err := exec(con, sql); err != nil {
					return 0, 0, fmt.Errorf("%s replay %.60q: %w", name, sql, err)
				}
				d := time.Since(t0)
				ns += int64(d)
				end := tr.now()
				tr.add(span{Req: int64(i + 1), Name: name, Start: end - int64(d), End: end})
			}
		}
		runtime.ReadMemStats(&after)
		return ns, after.TotalAlloc - before.TotalAlloc, nil
	}
	sessions := map[int]*engine.Session{}
	engNs, engAlloc, err := replay("engine.ExecSQL", func(con int, sql string) error {
		s := sessions[con]
		if s == nil {
			s = eng.NewSession()
			s.SetUser("hyperq")
			sessions[con] = s
		}
		_, err := s.ExecSQL(sql)
		return err
	})
	if err != nil {
		return bc, err
	}
	clients := map[int]*cwp.Client{}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	cwpNs, cwpAlloc, err := replay("cwp.Exec", func(con int, sql string) error {
		c := clients[con]
		if c == nil {
			var err error
			if c, err = cwp.Dial(beAddr, "hyperq", "hyperq"); err != nil {
				return err
			}
			clients[con] = c
		}
		_, err := c.Exec(sql)
		return err
	})
	if err != nil {
		return bc, err
	}
	bc.engineUs = float64(engNs) / 1e3
	bc.engineAllocKB = float64(engAlloc) / 1024
	bc.cwpUs = float64(cwpNs-engNs) / 1e3
	bc.cwpAllocKB = (float64(cwpAlloc) - float64(engAlloc)) / 1024
	return bc, nil
}

package main

import (
	"bufio"
	"net"
	"reflect"
	"testing"

	"hyperq/internal/dialect"
	"hyperq/internal/engine"
	"hyperq/internal/odbc"
	"hyperq/internal/wire"
	"hyperq/internal/wire/tdp"
)

// planFor loads a backend for w and derives its plan from seed.
func planFor(t *testing.T, w *workload, eng *engine.Engine, seed int64) *plan {
	t.Helper()
	p, err := w.plan(seed, eng)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return p
}

func TestSeedFixesRequests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			eng := engine.New(dialect.CloudA())
			if err := w.load(eng.NewSession()); err != nil {
				t.Fatal(err)
			}
			a, b, c := planFor(t, w, eng, 5), planFor(t, w, eng, 5), planFor(t, w, eng, 6)
			if !reflect.DeepEqual(a.seqs, b.seqs) || !reflect.DeepEqual(a.warmup, b.warmup) {
				t.Error("the same seed gave different requests")
			}
			if reflect.DeepEqual(a.seqs, c.seqs) {
				t.Error("different seeds gave the same requests")
			}
			if len(a.seqs) != w.sessions {
				t.Errorf("%d request sequences for %d sessions", len(a.seqs), w.sessions)
			}
		})
	}
}

// serveOnce answers one request on conn with a two-row result set whose
// first record carries payload. Parcels go out through one buffered write,
// as tdp.Serve sends them; a pipe would block on the empty EndRequest
// payload otherwise.
func serveOnce(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	if kind, _, err := wire.ReadMessage(conn); err != nil || kind != tdp.MsgRunRequest {
		t.Errorf("server read parcel 0x%02x: %v", kind, err)
		return
	}
	out := bufio.NewWriter(conn)
	for _, m := range []struct {
		kind    byte
		payload []byte
	}{
		{tdp.MsgStmtInfo, []byte("cols")},
		{tdp.MsgRecord, payload},
		{tdp.MsgRecord, []byte("row two")},
		{tdp.MsgSuccess, []byte("2")},
		{tdp.MsgEndRequest, nil},
	} {
		if err := wire.WriteMessage(out, m.kind, m.payload); err != nil {
			t.Errorf("server write: %v", err)
			return
		}
	}
	if err := out.Flush(); err != nil {
		t.Errorf("server flush: %v", err)
	}
}

// respond runs one request through the lean client against serveOnce.
func respond(t *testing.T, sql string, payload []byte) response {
	t.Helper()
	cs, ss := net.Pipe()
	defer cs.Close()
	defer ss.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveOnce(t, ss, payload)
	}()
	r, err := newClient(cs).do(sql)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCheckerCatchesPayloadMismatch(t *testing.T) {
	const sql = "SEL a FROM t"
	ref := reference{}
	if err := ref.record(sql, respond(t, sql, []byte("row one"))); err != nil {
		t.Fatal(err)
	}
	if err := ref.check(sql, respond(t, sql, []byte("row one"))); err != nil {
		t.Errorf("identical response rejected: %v", err)
	}
	got := respond(t, sql, []byte("row 0ne"))
	if got.records != 2 {
		t.Fatalf("client counted %d records, want 2", got.records)
	}
	if err := ref.check(sql, got); err == nil {
		t.Error("a changed record payload passed the check")
	}
}

func TestHelpSessionIsCheckedByShape(t *testing.T) {
	const sql = "HELP SESSION"
	ref := reference{}
	if err := ref.record(sql, respond(t, sql, []byte("logon 10:00"))); err != nil {
		t.Fatal(err)
	}
	if err := ref.check(sql, respond(t, sql, []byte("logon 10:01"))); err != nil {
		t.Errorf("HELP SESSION with another logon time rejected: %v", err)
	}
	if err := ref.check(sql, response{failed: true, code: 3706}); err == nil {
		t.Error("a failed HELP SESSION passed the check")
	}
}

func TestTimingDriverMirrorsExecutor(t *testing.T) {
	eng := engine.New(dialect.CloudA())
	tr := newTracer(nil)
	ex, err := (&timingDriver{inner: &odbc.ResilientDriver{Inner: &odbc.LocalDriver{Engine: eng}}, t: tr}).Connect()
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Close()
	if _, ok := ex.(odbc.StreamExecutor); !ok {
		t.Error("wrapped executor hides ExecStream; the gateway would fall back to buffered results")
	}
	if _, ok := ex.(odbc.ReconnectAware); !ok {
		t.Error("wrapped executor hides OnReconnect")
	}
	// The bare in-process executor cannot reconnect; wrapping it would add
	// an interface it lacks, so the driver must refuse it.
	if ex, err := (&timingDriver{inner: &odbc.LocalDriver{Engine: eng}, t: tr}).Connect(); err == nil {
		ex.Close()
		t.Error("timing driver accepted an executor it cannot mirror")
	}
}

package main

import (
	"fmt"
	"strings"
)

// expect is the recorded answer to one request text.
type expect struct {
	records int
	hash    uint64 // every parcel
	shape   uint64 // parcel kinds and column metadata only
}

// reference maps request text to its answer, recorded on a gateway with the
// translation cache and the streaming result path both off.
type reference map[string]expect

// shapeOnly marks requests whose answer legitimately changes between
// sessions: HELP SESSION reports the session's logon time, so only its row
// count and column layout are compared.
func shapeOnly(sql string) bool {
	return strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sql)), "HELP SESSION")
}

// check compares one response with the reference. A failed request, a
// different row count or different parcel bytes are all mismatches.
func (ref reference) check(sql string, r response) error {
	e, ok := ref[sql]
	if !ok {
		return fmt.Errorf("no reference answer for %.80q", sql)
	}
	if r.failed {
		return fmt.Errorf("request failed [%d] %s: %.80q", r.code, r.msg, sql)
	}
	return e.match(sql, expect{records: r.records, hash: r.hash, shape: r.shape})
}

func (e expect) match(sql string, got expect) error {
	switch {
	case got.records != e.records:
		return fmt.Errorf("%d rows, reference has %d: %.80q", got.records, e.records, sql)
	case shapeOnly(sql) && got.shape != e.shape:
		return fmt.Errorf("result layout differs from reference: %.80q", sql)
	case !shapeOnly(sql) && got.hash != e.hash:
		return fmt.Errorf("response bytes differ from reference: %.80q", sql)
	}
	return nil
}

// add records e as the answer to sql. A text already recorded must have
// the same answer, which checks that the workload's answers do not depend
// on when or in which session a request runs.
func (ref reference) add(sql string, e expect) error {
	if old, ok := ref[sql]; ok {
		return old.match(sql, e)
	}
	ref[sql] = e
	return nil
}

// record adds a response from the reference gateway, which must succeed.
func (ref reference) record(sql string, r response) error {
	if r.failed {
		return fmt.Errorf("reference request failed [%d] %s: %.80q", r.code, r.msg, sql)
	}
	return ref.add(sql, expect{records: r.records, hash: r.hash, shape: r.shape})
}

package main

import (
	"strings"
	"testing"
	"time"

	"gobad/internal/broker"
)

func item(ts int64, pids ...int64) broker.ResultItem {
	it := broker.ResultItem{TimestampNS: ts}
	for _, p := range pids {
		it.Rows = append(it.Rows, map[string]any{"pid": float64(p)})
	}
	return it
}

// oracleFixture: zone-3 and score>=10 subscriptions joined at t0, and five
// records sent one second apart from t0+1s.
func oracleFixture() (*oracle, *subTrack, *subTrack, time.Time) {
	o := newOracle()
	t0 := time.Unix(1000, 0)
	fields := []map[string]float64{
		{"zone": 3, "score": 5},  // pid 1: zone track only
		{"zone": 4, "score": 12}, // pid 2: score track only
		{"zone": 3, "score": 10}, // pid 3: both
		{"zone": 5, "score": 1},  // pid 4: neither
		{"zone": 3, "score": 9},  // pid 5: zone track only
	}
	for i, f := range fields {
		at := t0.Add(time.Duration(i+1) * time.Second)
		o.addRecord(&pubRecord{pid: int64(i + 1), fields: f, sched: at, sentStart: at, sentEnd: at.Add(time.Millisecond)})
	}
	s := &subscriber{name: "s1"}
	zone := &subTrack{subscriber: s, ch: zoneAlerts, params: []float64{3}, fs: "fs1", bs: "bs1", joined: t0}
	score := &subTrack{subscriber: s, ch: scoreAbove, params: []float64{10}, fs: "fs2", bs: "bs2", joined: t0}
	o.addTrack(zone)
	o.addTrack(score)
	return o, zone, score, t0
}

func TestOracleAcceptsExpectedRows(t *testing.T) {
	o, zone, score, t0 := oracleFixture()
	sched := o.deliver(zone, []broker.ResultItem{item(10, 1), item(20, 3, 5)})
	o.deliver(score, []broker.ResultItem{item(10, 2, 3)})
	if n, msgs := o.report(); n != 0 {
		t.Fatalf("violations: %v", msgs)
	}
	if !sched[0].Equal(t0.Add(time.Second)) || !sched[1].Equal(t0.Add(3*time.Second)) {
		t.Errorf("scheduled times %v, want oldest row's", sched)
	}
	if exp, miss := o.tally(); exp != 5 || miss != 0 {
		t.Fatalf("tally = %d owed, %d missing; want 5, 0", exp, miss)
	}
}

func TestOracleFlagsUnexpectedDuplicateAndOutOfOrder(t *testing.T) {
	cases := []struct {
		name  string
		items [][]broker.ResultItem
		want  string
	}{
		{"non-matching row", [][]broker.ResultItem{{item(10, 2)}}, "unexpected row pid 2"},
		{"unknown pid", [][]broker.ResultItem{{item(10, 99)}}, "unknown pid"},
		{"duplicate across retrievals", [][]broker.ResultItem{{item(10, 1)}, {item(20, 1)}}, "duplicate row pid 1"},
		{"timestamp not increasing", [][]broker.ResultItem{{item(20, 1)}, {item(20, 3)}}, "out of order"},
		{"older result after newer", [][]broker.ResultItem{{item(20, 3), item(10, 1)}}, "out of order"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, zone, _, _ := oracleFixture()
			for _, its := range c.items {
				o.deliver(zone, its)
			}
			n, msgs := o.report()
			if n == 0 || !strings.Contains(strings.Join(msgs, "\n"), c.want) {
				t.Fatalf("violations %d %v, want one containing %q", n, msgs, c.want)
			}
		})
	}
}

// TestOracleCountsMissingNotOptional: rows never delivered count as
// missing; rows sent before the subscription joined, or too close to a
// churned subscription's scheduled unsubscribe, are not owed.
func TestOracleCountsMissingNotOptional(t *testing.T) {
	o, zone, score, t0 := oracleFixture()
	zone.joined = t0.Add(1500 * time.Millisecond) // pid 1 predates it
	o.deliver(zone, []broker.ResultItem{item(20, 3)})
	score.left = t0.Add(3200 * time.Millisecond) // pid 3 within settle
	exp, miss := o.tally()
	// zone owes pids 3 and 5 (5 missing); score owes pid 2 (missing).
	if exp != 3 || miss != 2 {
		t.Fatalf("tally = %d owed, %d missing; want 3, 2", exp, miss)
	}
	if len(o.lost) != 2 {
		t.Errorf("lost details %v", o.lost)
	}
}

func TestPredicates(t *testing.T) {
	f := map[string]float64{"zone": 7, "level": 40}
	if !zoneLevel.match(f, []float64{7, 40}) || zoneLevel.match(f, []float64{7, 41}) || zoneLevel.match(f, []float64{8, 0}) {
		t.Error("zone/level predicate")
	}
	if !scoreAbove.match(map[string]float64{"score": 10}, []float64{10}) || scoreAbove.match(map[string]float64{"score": 9}, []float64{10}) {
		t.Error("threshold predicate")
	}
}

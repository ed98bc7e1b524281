package main

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"gobad/internal/broker"
)

// predicate is the reference form of a channel body: it decides from a
// record's numeric fields and the subscription's parameters whether the
// record belongs in the subscription's results. It is written independently
// of the cluster's AQL evaluation, which is what the oracle checks.
type predicate func(fields map[string]float64, params []float64) bool

// eqPredicate is `r.<field> = $p0`.
func eqPredicate(field string) predicate {
	return func(f map[string]float64, p []float64) bool { return f[field] == p[0] }
}

// gePredicate is `r.<field> >= $p0`.
func gePredicate(field string) predicate {
	return func(f map[string]float64, p []float64) bool { return f[field] >= p[0] }
}

// eqGePredicate is `r.<eq> = $p0 and r.<ge> >= $p1`.
func eqGePredicate(eq, ge string) predicate {
	return func(f map[string]float64, p []float64) bool { return f[eq] == p[0] && f[ge] >= p[1] }
}

// channelSpec is one channel of a workload's catalog: its AQL definition
// for the cluster and its reference predicate for the oracle.
type channelSpec struct {
	name   string
	params []string
	body   string
	match  predicate
}

// pubRecord is one published record as the oracle knows it.
type pubRecord struct {
	pid    int64
	fields map[string]float64
	// sched is the publication's scheduled send time; sentStart and
	// sentEnd bracket the ingest call that carried it.
	sched     time.Time
	sentStart time.Time
	sentEnd   time.Time
}

// subTrack is the oracle's record of one frontend subscription.
type subTrack struct {
	subscriber *subscriber
	ch         *channelSpec
	params     []float64
	fs, bs     string
	// joined is when Subscribe returned; records sent after it are owed.
	joined time.Time
	// left is the unsubscribe's scheduled time (zero while live). Records
	// scheduled within settle of it may not have reached the broker by the
	// last retrieval ahead of the unsubscribe and are not owed. Using the
	// schedule, not the clock, makes the owed set a function of the seed.
	// lastFetch is the start of the last retrieval, for diagnostics.
	left      time.Time
	lastFetch time.Time

	// guarded by the oracle's mutex
	seen   map[int64]struct{}
	lastTS int64
}

func (t *subTrack) key() string {
	return t.ch.name + "|" + fmt.Sprint(t.params)
}

// settle is how long after its scheduled time a record may still be in
// flight toward the broker (ingest, webhook queue, pull). Only records
// scheduled more than settle before a churned subscription's unsubscribe
// are owed to it.
const settle = time.Second

// oracle checks every delivered row against the reference and counts the
// owed rows that never arrived.
type oracle struct {
	mu      sync.Mutex
	records map[int64]*pubRecord
	tracks  []*subTrack

	violations []string
	lost       []string // the first few owed rows that never arrived
	nViolation int
}

func newOracle() *oracle {
	return &oracle{records: make(map[int64]*pubRecord)}
}

func (o *oracle) addRecord(r *pubRecord) {
	o.mu.Lock()
	o.records[r.pid] = r
	o.mu.Unlock()
}

func (o *oracle) addTrack(t *subTrack) {
	o.mu.Lock()
	t.seen = make(map[int64]struct{})
	o.tracks = append(o.tracks, t)
	o.mu.Unlock()
}

func (o *oracle) violate(format string, args ...any) {
	o.nViolation++
	if len(o.violations) < 20 {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// deliver checks one GetResults answer for track and returns, per item,
// the publication scheduled time of its oldest row (zero when unknown).
// A row is a violation when its record is unknown or does not match the
// subscription, when it was already delivered, or when its result object
// is not newer than every object delivered before it.
func (o *oracle) deliver(t *subTrack, items []broker.ResultItem) []time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]time.Time, len(items))
	for i, it := range items {
		if it.TimestampNS <= t.lastTS {
			o.violate("%s %s: result %d delivered after %d (out of order)",
				t.subscriber.name, t.key(), it.TimestampNS, t.lastTS)
		} else {
			t.lastTS = it.TimestampNS
		}
		for _, row := range it.Rows {
			pid, ok := rowPID(row)
			rec := o.records[pid]
			if !ok || rec == nil {
				o.violate("%s %s: row with unknown pid %v", t.subscriber.name, t.key(), row["pid"])
				continue
			}
			if !t.ch.match(rec.fields, t.params) {
				o.violate("%s %s: unexpected row pid %d %v", t.subscriber.name, t.key(), pid, rec.fields)
				continue
			}
			if _, dup := t.seen[pid]; dup {
				o.violate("%s %s: duplicate row pid %d", t.subscriber.name, t.key(), pid)
				continue
			}
			t.seen[pid] = struct{}{}
			if out[i].IsZero() || rec.sched.Before(out[i]) {
				out[i] = rec.sched
			}
		}
	}
	return out
}

func rowPID(row map[string]any) (int64, bool) {
	switch v := row["pid"].(type) {
	case float64:
		return int64(v), true
	case string:
		n, err := strconv.ParseInt(v, 10, 64)
		return n, err == nil
	}
	return 0, false
}

// owed reports whether rec must reach t.
func (t *subTrack) owed(rec *pubRecord) bool {
	if rec.sentStart.Before(t.joined) {
		return false // in flight when the subscription was made: optional
	}
	if !t.left.IsZero() && rec.sched.Add(settle).After(t.left) {
		return false
	}
	return t.ch.match(rec.fields, t.params)
}

// tally returns the owed rows and how many of them never arrived.
func (o *oracle) tally() (expected, missing int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	recs := make([]*pubRecord, 0, len(o.records))
	for _, r := range o.records {
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].pid < recs[j].pid })
	// Evaluate each record once per distinct (channel, params), not once
	// per subscription.
	matches := make(map[string][]*pubRecord)
	for _, t := range o.tracks {
		k := t.key()
		if _, ok := matches[k]; ok {
			continue
		}
		var m []*pubRecord
		for _, r := range recs {
			if t.ch.match(r.fields, t.params) {
				m = append(m, r)
			}
		}
		matches[k] = m
	}
	for _, t := range o.tracks {
		for _, r := range matches[t.key()] {
			if !t.owed(r) {
				continue
			}
			expected++
			if _, ok := t.seen[r.pid]; !ok {
				missing++
				if missing <= 5 {
					o.lost = append(o.lost, fmt.Sprintf("%s %s %s/%s: pid %d sent %s..%s joined %s left %s lastFetch %s lastTS %d",
						t.subscriber.name, t.key(), t.fs, t.bs, r.pid, r.sentStart.Format("05.000"), r.sentEnd.Format("05.000"),
						t.joined.Format("05.000"), t.left.Format("05.000"), t.lastFetch.Format("05.000"), t.lastTS))
				}
			}
		}
	}
	return expected, missing
}

// report returns the violation count and the first few messages.
func (o *oracle) report() (int, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nViolation, append([]string(nil), o.violations...)
}

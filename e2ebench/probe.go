package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// ival is a span's interval in nanoseconds since the run's epoch.
type ival struct{ start, end int64 }

func (v ival) dur() int64 { return v.end - v.start }

// within reports whether v lies inside outer.
func (v ival) within(outer ival) bool { return v.start >= outer.start && v.end <= outer.end }

type notifyEv struct {
	ival
	bs string
	ts int64
}

type callbackEv struct {
	ival
	bs  string
	max int64 // newest result timestamp the callback announced or carried
}

type rangeEv struct {
	ival
	bs string
}

type callEv struct {
	ival
	fs string
}

type ingestEv struct {
	ival
	sched int64
}

type frameEv struct {
	at     int64
	fs     string
	latest int64
}

type deliveryEv struct {
	get     int // index into probe.gets
	bs, fs  string
	ts, pid int64
}

// probe is the benchmark's view into the running program. Counters are
// always kept; durations and spans only in traced runs, kept in memory and
// written out when the run ends.
type probe struct {
	traced bool
	epoch  time.Time
	dialer *countingDialer
	http   *http.Client

	clusterBytes   atomic.Int64 // webhook bodies plus range-read responses
	deliveredBytes atomic.Int64 // GetResults response bodies
	serverErrors   atomic.Int64
	pulls          atomic.Int64
	notifies       atomic.Int64

	mu         sync.Mutex
	samples    map[string][]float64
	ingestSrv  []ival
	ingestCli  []ingestEv
	notifyEvs  []notifyEv
	callbacks  []callbackEv
	pullEvs    []rangeEv
	rangeEvs   []rangeEv
	retrieves  []callEv
	acks       []callEv
	frames     []frameEv
	gets       []ival
	deliveries []deliveryEv
	sessions   []*sessionConn
}

func newProbe(traced bool, perHost int) *probe {
	p := &probe{traced: traced, epoch: time.Now(), dialer: &countingDialer{}, samples: map[string][]float64{}}
	p.http = driverClient(p.dialer, perHost)
	return p
}

func (p *probe) ns(t time.Time) int64 { return t.Sub(p.epoch).Nanoseconds() }

func (p *probe) iv(start, end time.Time) ival { return ival{p.ns(start), p.ns(end)} }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (p *probe) serverSpan(name string, r *http.Request, start, end time.Time, respBytes int64, body *bytes.Buffer) {
	v := p.iv(start, end)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples[name+"_ms"] = append(p.samples[name+"_ms"], ms(end.Sub(start)))
	switch name {
	case "bdms.ingest":
		p.ingestSrv = append(p.ingestSrv, v)
	case "bdms.range":
		p.rangeEvs = append(p.rangeEvs, rangeEv{ival: v, bs: pathSegment(r.URL.Path, 2)})
		p.samples["bdms.range_bytes"] = append(p.samples["bdms.range_bytes"], float64(respBytes))
	case "broker.callback":
		var payload struct {
			SubscriptionID string `json:"subscription_id"`
			LatestNS       int64  `json:"latest_ns"`
			Result         *struct {
				Timestamp int64 `json:"timestamp"`
			} `json:"result"`
			Results []struct {
				Timestamp int64 `json:"timestamp"`
			} `json:"results"`
		}
		if body != nil && json.Unmarshal(body.Bytes(), &payload) == nil {
			ev := callbackEv{ival: v, bs: payload.SubscriptionID, max: payload.LatestNS}
			if payload.Result != nil && payload.Result.Timestamp > ev.max {
				ev.max = payload.Result.Timestamp
			}
			for _, res := range payload.Results {
				ev.max = max(ev.max, res.Timestamp)
			}
			p.callbacks = append(p.callbacks, ev)
		}
	case "broker.retrieve":
		p.retrieves = append(p.retrieves, callEv{ival: v, fs: pathSegment(r.URL.Path, 2)})
		p.samples["broker.retrieve_bytes"] = append(p.samples["broker.retrieve_bytes"], float64(respBytes))
	case "broker.ack":
		p.acks = append(p.acks, callEv{ival: v, fs: pathSegment(r.URL.Path, 2)})
	}
}

// pathSegment returns the i-th segment of /v1/subscriptions/{id}/... .
func pathSegment(path string, i int) string {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	if i < len(parts) {
		return parts[i]
	}
	return ""
}

func (p *probe) pullSpan(bs string, start, end time.Time) {
	p.mu.Lock()
	p.pullEvs = append(p.pullEvs, rangeEv{ival: p.iv(start, end), bs: bs})
	p.samples["broker.pull_ms"] = append(p.samples["broker.pull_ms"], ms(end.Sub(start)))
	p.mu.Unlock()
}

func (p *probe) notifySpan(bs string, ts int64, start, end time.Time) {
	p.mu.Lock()
	p.notifyEvs = append(p.notifyEvs, notifyEv{ival: p.iv(start, end), bs: bs, ts: ts})
	p.samples["bdms.notify_us"] = append(p.samples["bdms.notify_us"], float64(end.Sub(start))/float64(time.Microsecond))
	p.mu.Unlock()
}

func (p *probe) ingestSpan(sched, start, end time.Time) {
	if !p.traced {
		return
	}
	p.mu.Lock()
	p.ingestCli = append(p.ingestCli, ingestEv{ival: p.iv(start, end), sched: p.ns(sched)})
	p.mu.Unlock()
}

func (p *probe) frameSpan(fs string, f pushFrame) {
	if !p.traced {
		return
	}
	p.mu.Lock()
	p.frames = append(p.frames, frameEv{at: p.ns(f.At), fs: fs, latest: f.LatestNS})
	p.mu.Unlock()
}

// getSpan records one GetResults call and the rows it delivered.
func (p *probe) getSpan(t *subTrack, start, end time.Time, items []deliveryEv) {
	if !p.traced {
		return
	}
	p.mu.Lock()
	p.gets = append(p.gets, p.iv(start, end))
	p.samples["client.get_results_ms"] = append(p.samples["client.get_results_ms"], ms(end.Sub(start)))
	for _, d := range items {
		d.get = len(p.gets) - 1
		p.deliveries = append(p.deliveries, d)
	}
	p.mu.Unlock()
}

// pathStages are the steps on a delivery's blocking path, in order.
var pathStages = []string{
	"driver_lag", "ingest_client", "bdms_ingest", "notify_handoff", "webhook_wait",
	"broker_callback", "broker_pull", "bdms_range", "session_push", "retrieval_wait",
	"client_get", "broker_retrieve", "broker_miss_fetch", "broker_ack",
}

// span is one written-out trace span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Key    string `json:"key,omitempty"`
}

// pathBreakdown joins the recorded spans to each delivered row through the
// (backend subscription, result timestamp) pair and the row's publication
// id, and returns every stage's self time on the blocking path, in ms,
// plus the joined spans with their parents.
func (p *probe) pathBreakdown(pubIngest map[int64]int) (map[string][]float64, []span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string][]float64)
	add := func(stage string, ns int64) {
		if ns < 0 {
			ns = 0
		}
		out[stage] = append(out[stage], float64(ns)/1e6)
	}
	byBS := func(n int, bs func(int) string) map[string][]int {
		m := make(map[string][]int)
		for i := 0; i < n; i++ {
			m[bs(i)] = append(m[bs(i)], i)
		}
		return m
	}
	notifyIdx := make(map[string]int, len(p.notifyEvs))
	for i, n := range p.notifyEvs {
		k := n.bs + "@" + strconv.FormatInt(n.ts, 10)
		if _, ok := notifyIdx[k]; !ok {
			notifyIdx[k] = i
		}
	}
	sortByStart := func(m map[string][]int, start func(int) int64) {
		for _, l := range m {
			sort.Slice(l, func(a, b int) bool { return start(l[a]) < start(l[b]) })
		}
	}
	cbs := byBS(len(p.callbacks), func(i int) string { return p.callbacks[i].bs })
	sortByStart(cbs, func(i int) int64 { return p.callbacks[i].start })
	pulls := byBS(len(p.pullEvs), func(i int) string { return p.pullEvs[i].bs })
	ranges := byBS(len(p.rangeEvs), func(i int) string { return p.rangeEvs[i].bs })
	frames := byBS(len(p.frames), func(i int) string { return p.frames[i].fs })
	sortByStart(frames, func(i int) int64 { return p.frames[i].at })
	rets := byBS(len(p.retrieves), func(i int) string { return p.retrieves[i].fs })
	acks := byBS(len(p.acks), func(i int) string { return p.acks[i].fs })

	// Span IDs: one per recorded event, parents filled in as joins succeed.
	var spans []span
	ids := map[string]int{}
	spanOf := func(kind string, i int, name string, v ival, key string) int {
		k := kind + "#" + strconv.Itoa(i)
		if id, ok := ids[k]; ok {
			return id
		}
		spans = append(spans, span{ID: len(spans) + 1, Name: name, Start: v.start, End: v.end, Key: key})
		ids[k] = len(spans)
		return len(spans)
	}
	link := func(child, parent int) {
		if spans[child-1].Parent == 0 {
			spans[child-1].Parent = parent
		}
	}
	inside := func(l []int, evs []rangeEv, outer ival) (total int64, last int64, idx []int) {
		for _, i := range l {
			if evs[i].within(outer) {
				total += evs[i].dur()
				last = max(last, evs[i].end)
				idx = append(idx, i)
			}
		}
		return
	}

	for _, d := range p.deliveries {
		g := p.gets[d.get]
		key := d.bs + "@" + strconv.FormatInt(d.ts, 10)
		gid := spanOf("get", d.get, "client.get_results", g, d.fs)
		var retDur, ackDur, missDur int64
		for _, i := range rets[d.fs] {
			if r := p.retrieves[i]; r.within(g) {
				retDur += r.dur()
				link(spanOf("ret", i, "broker.retrieve", r.ival, d.fs), gid)
				md, _, pidx := inside(pulls[d.bs], p.pullEvs, r.ival)
				missDur += md
				for _, pi := range pidx {
					link(spanOf("pull", pi, "broker.pull", p.pullEvs[pi].ival, d.bs), ids["ret#"+strconv.Itoa(i)])
				}
			}
		}
		for _, i := range acks[d.fs] {
			if a := p.acks[i]; a.within(g) {
				ackDur += a.dur()
				link(spanOf("ack", i, "broker.ack", a.ival, d.fs), gid)
			}
		}
		add("client_get", g.dur()-retDur-ackDur)
		add("broker_retrieve", retDur-missDur)
		add("broker_miss_fetch", missDur)
		add("broker_ack", ackDur)

		ii, ok := pubIngest[d.pid]
		if !ok || ii >= len(p.ingestCli) {
			continue
		}
		ic := p.ingestCli[ii]
		icid := spanOf("icli", ii, "driver.ingest", ic.ival, "")
		add("driver_lag", ic.start-ic.sched)
		if ii < len(p.ingestSrv) {
			is := p.ingestSrv[ii]
			link(spanOf("isrv", ii, "bdms.ingest", is, ""), icid)
			add("bdms_ingest", is.dur())
			add("ingest_client", ic.dur()-is.dur())
		}
		ni, ok := notifyIdx[key]
		if !ok {
			continue
		}
		n := p.notifyEvs[ni]
		nid := spanOf("notify", ni, "bdms.notify", n.ival, key)
		if ii < len(p.ingestSrv) {
			link(nid, ids["isrv#"+strconv.Itoa(ii)])
		}
		add("notify_handoff", n.dur())
		ci := -1
		for _, i := range cbs[d.bs] {
			if c := p.callbacks[i]; c.max >= d.ts && c.start >= n.start {
				ci = i
				break
			}
		}
		if ci < 0 {
			continue
		}
		cb := p.callbacks[ci]
		cid := spanOf("cb", ci, "broker.callback", cb.ival, key)
		link(cid, nid)
		add("webhook_wait", cb.start-n.end)
		pullDur, pullEnd, pidx := inside(pulls[d.bs], p.pullEvs, cb.ival)
		var rangeDur int64
		for _, pi := range pidx {
			pid := spanOf("pull", pi, "broker.pull", p.pullEvs[pi].ival, d.bs)
			link(pid, cid)
			rd, _, ridx := inside(ranges[d.bs], p.rangeEvs, p.pullEvs[pi].ival)
			rangeDur += rd
			for _, ri := range ridx {
				link(spanOf("range", ri, "bdms.range", p.rangeEvs[ri].ival, d.bs), pid)
			}
		}
		add("broker_callback", cb.dur()-pullDur)
		add("broker_pull", pullDur-rangeDur)
		add("bdms_range", rangeDur)
		fi := -1
		for _, i := range frames[d.fs] {
			if f := p.frames[i]; f.latest >= d.ts && f.at >= cb.start {
				fi = i
				break
			}
		}
		if fi < 0 || p.frames[fi].at > g.start {
			continue // delivered by a login catch-up, not by this push
		}
		f := p.frames[fi]
		fid := spanOf("frame", fi, "session.frame", ival{f.at, f.at}, d.fs)
		link(fid, cid)
		add("session_push", f.at-max(pullEnd, cb.start))
		link(gid, fid)
		add("retrieval_wait", g.start-f.at)
	}
	return out, spans
}

// writeSpans writes the joined spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile (nearest rank) of vs; 0 for none.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func describe(name string, vs []float64) string {
	return fmt.Sprintf("%s n=%d p50=%.3f p99=%.3f", name, len(vs), quantile(vs, 0.5), quantile(vs, 0.99))
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/client"
	"gobad/internal/wsock"
)

// subscriber is one simulated BAD subscriber: a real client.Client for
// subscribe and retrieve, and a benchmark-owned session conn attached to
// its broker in place of a WebSocket.
type subscriber struct {
	name string
	node *brokerNode
	cl   *client.Client

	// mu serializes the subscriber's retrievals and subscription changes,
	// as a single client pump would.
	mu sync.Mutex

	tmu    sync.Mutex
	tracks map[string]*subTrack // by backend subscription

	conn    *wsock.Conn
	gen     atomic.Int64 // login generation; retrievals queued earlier are stale
	online  atomic.Bool
	loginAt atomic.Int64 // UnixNano of the latest login
}

func (s *subscriber) track(bs string) *subTrack {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	return s.tracks[bs]
}

func (s *subscriber) allTracks() []*subTrack {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := make([]*subTrack, 0, len(s.tracks))
	for _, t := range s.tracks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fs < out[j].fs })
	return out
}

// frame is a push frame as the driver keeps it for notify latency.
type frame struct {
	bs string
	at time.Time
	ts int64
}

// driver plays one workload against one stack and measures it.
type driver struct {
	wl    *workload
	st    *stack
	p     *probe
	o     *oracle
	q     *retrievalQueue
	nproc int

	subs   []*subscriber
	byName map[string]*subscriber

	pids atomic.Int64 // publication record ids
	// attempted counts the scheduled driver calls (ingest, subscribe,
	// unsubscribe, place), whose number the seed fixes; retrieves counts
	// GetResults calls, whose number depends on timing. failed counts
	// failures of either kind.
	attempted atomic.Int64
	retrieves atomic.Int64
	failed    atomic.Int64

	mu         sync.Mutex
	lagMS      []float64
	resultLat  latencies
	frames     []frame
	schedByKey map[string]time.Time // "bs@ts" -> publication scheduled time
	retrievals int64
	empty      int64
	items      int64
	placeMS    []float64
	pubIngest  map[int64]int // pid -> index of its ingest call (traced)
	ingests    int

	windowEnd  atomic.Int64 // UnixNano; deliveries after it are drain
	inWindow   atomic.Int64 // result objects delivered inside the window
	delivered  atomic.Int64
	itemBytes  atomic.Int64 // result object bytes delivered (ResultItem.Size)
	lastChange atomic.Int64
	errSamples []string
}

func newDriver(wl *workload, st *stack, p *probe, nproc int) *driver {
	return &driver{
		wl: wl, st: st, p: p, o: newOracle(), q: newRetrievalQueue(), nproc: nproc,
		byName: map[string]*subscriber{}, schedByKey: map[string]time.Time{}, pubIngest: map[int64]int{},
	}
}

func (d *driver) fail(err error) {
	d.failed.Add(1)
	d.mu.Lock()
	if len(d.errSamples) < 10 {
		d.errSamples = append(d.errSamples, err.Error())
	}
	d.mu.Unlock()
}

// newSubscriber creates a subscriber homed on node.
func (d *driver) newSubscriber(name string, node *brokerNode) (*subscriber, error) {
	cl, err := client.New(client.Config{Subscriber: name, BrokerURL: node.srv.url, HTTPClient: d.p.http})
	if err != nil {
		return nil, err
	}
	s := &subscriber{name: name, node: node, cl: cl, tracks: map[string]*subTrack{}}
	d.mu.Lock()
	d.byName[name] = s
	d.mu.Unlock()
	return s, nil
}

// place asks the BCS which broker owns the subscriber (HRW placement).
func (d *driver) place(name string) (*brokerNode, error) {
	d.attempted.Add(1)
	start := time.Now()
	resp, err := bcs.NewClient(d.st.bcsSrv.url, d.p.http).Place(name, "")
	el := time.Since(start)
	if err != nil {
		d.fail(err)
		return nil, err
	}
	d.mu.Lock()
	d.placeMS = append(d.placeMS, ms(el))
	d.mu.Unlock()
	for _, n := range d.st.brokers {
		if n.b.ID() == resp.Broker.ID {
			return n, nil
		}
	}
	err = fmt.Errorf("placement named unknown broker %q", resp.Broker.ID)
	d.fail(err)
	return nil, err
}

// subscribe creates one frontend subscription and registers it with the
// oracle. Callers hold s.mu or own s exclusively.
func (d *driver) subscribe(s *subscriber, ch *channelSpec, params []float64) error {
	d.attempted.Add(1)
	args := make([]any, len(params))
	for i, v := range params {
		args[i] = v
	}
	fs, err := s.cl.Subscribe(ch.name, args)
	joined := time.Now()
	if err != nil {
		d.fail(fmt.Errorf("subscribe %s: %w", s.name, err))
		return err
	}
	bs, err := s.node.b.BackendSubID(s.name, fs)
	if err != nil {
		return fmt.Errorf("backend id: %w", err)
	}
	t := &subTrack{subscriber: s, ch: ch, params: params, fs: fs, bs: bs, joined: joined}
	d.o.addTrack(t)
	s.tmu.Lock()
	s.tracks[bs] = t
	s.tmu.Unlock()
	return nil
}

// unsubscribe withdraws t, scheduled at sched, after one last retrieval.
// Callers hold s.mu.
func (d *driver) unsubscribe(s *subscriber, t *subTrack, sched time.Time) {
	d.retrieveLocked(retrieval{sub: s, track: t})
	s.tmu.Lock()
	delete(s.tracks, t.bs)
	s.tmu.Unlock()
	d.attempted.Add(1)
	t.left = sched
	if err := s.cl.Unsubscribe(t.fs); err != nil {
		d.fail(fmt.Errorf("unsubscribe %s: %w", s.name, err))
	}
}

// login attaches a fresh session conn to the subscriber's broker.
func (d *driver) login(s *subscriber, catchUp bool) {
	gen := s.gen.Add(1)
	sc := newSessionConn(func(f pushFrame) { d.onFrame(s, gen, f) })
	conn := wsock.NewConn(sc, false)
	s.loginAt.Store(time.Now().UnixNano())
	s.online.Store(true)
	if !s.node.b.AttachSession(s.name, conn) {
		d.fail(fmt.Errorf("attach %s refused", s.name))
		return
	}
	s.conn = conn
	d.p.mu.Lock()
	d.p.sessions = append(d.p.sessions, sc)
	d.p.mu.Unlock()
	if catchUp {
		for _, t := range s.allTracks() {
			d.q.push(retrieval{sub: s, track: t, gen: gen})
		}
	}
}

func (d *driver) logout(s *subscriber) {
	s.online.Store(false)
	s.gen.Add(1)
	if s.conn != nil {
		s.node.b.DetachSession(s.name, s.conn)
		s.conn = nil
	}
}

// onFrame runs on a broker writer goroutine: stamp, record, queue.
func (d *driver) onFrame(s *subscriber, gen int64, f pushFrame) {
	t := s.track(f.BS)
	if t == nil {
		return
	}
	d.p.frameSpan(t.fs, f)
	d.mu.Lock()
	d.frames = append(d.frames, frame{bs: f.BS, at: f.At, ts: f.LatestNS})
	d.mu.Unlock()
	d.q.push(retrieval{sub: s, track: t, gen: gen})
}

// retriever drains the retrieval queue until it closes.
func (d *driver) retriever(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		r, ok := d.q.pop()
		if !ok {
			return
		}
		s := r.sub
		if r.gen != 0 && (r.gen != s.gen.Load() || !s.online.Load()) {
			continue // the subscriber logged out since; its pump stopped
		}
		s.mu.Lock()
		d.retrieveLocked(r)
		s.mu.Unlock()
	}
}

// retrieveLocked runs one GetResults for r.track and checks the answer.
func (d *driver) retrieveLocked(r retrieval) {
	t := r.track
	if !t.left.IsZero() {
		return
	}
	d.retrieves.Add(1)
	start := time.Now()
	items, err := t.subscriber.cl.GetResults(t.fs)
	end := time.Now()
	t.lastFetch = start
	if err != nil {
		d.fail(fmt.Errorf("get results %s: %w", t.subscriber.name, err))
	}
	scheds := d.o.deliver(t, items)
	loginAt := time.Unix(0, t.subscriber.loginAt.Load())
	var evs []deliveryEv
	d.mu.Lock()
	d.retrievals++
	d.items += int64(len(items))
	if len(items) == 0 {
		d.empty++
	}
	for i, it := range items {
		d.itemBytes.Add(it.Size)
		sched := scheds[i]
		if sched.IsZero() {
			continue
		}
		d.schedByKey[t.bs+"@"+itoa(it.TimestampNS)] = sched
		deliverable := sched
		if loginAt.After(deliverable) {
			deliverable = loginAt
		}
		if deliverable.UnixNano() <= d.windowEnd.Load() {
			// Results that only became deliverable in the drain (the
			// closing logins) are not part of the measured load.
			d.resultLat.add(deliverable, ms(end.Sub(deliverable)))
		}
		if d.p.traced {
			for _, row := range it.Rows {
				if pid, ok := rowPID(row); ok {
					evs = append(evs, deliveryEv{bs: t.bs, fs: t.fs, ts: it.TimestampNS, pid: pid})
				}
			}
		}
	}
	d.mu.Unlock()
	if n := int64(len(items)); n > 0 {
		d.delivered.Add(n)
		d.lastChange.Store(end.UnixNano())
		if end.UnixNano() <= d.windowEnd.Load() {
			d.inWindow.Add(n)
		}
	}
	d.p.getSpan(t, start, end, evs)
}

// publish sends one publication (a single record or a batch) at its
// scheduled time and registers its records with the oracle first, since
// results can reach subscribers before the ingest call returns.
func (d *driver) publish(cc *bdms.Client, sched time.Time, recs []*pubRecord, data []map[string]any) {
	if wait := time.Until(sched); wait > 0 {
		time.Sleep(wait)
	}
	start := time.Now()
	d.mu.Lock()
	d.lagMS = append(d.lagMS, ms(start.Sub(sched)))
	idx := d.ingests
	d.ingests++
	for _, r := range recs {
		r.sched, r.sentStart = sched, start
		d.o.addRecord(r)
		if d.p.traced {
			d.pubIngest[r.pid] = idx
		}
	}
	d.mu.Unlock()
	d.attempted.Add(1)
	var err error
	if len(data) == 1 {
		_, err = cc.Ingest(d.wl.stack.dataset, data[0])
	} else {
		_, err = cc.IngestBatch(d.wl.stack.dataset, data)
	}
	end := time.Now()
	for _, r := range recs {
		r.sentEnd = end
	}
	if err != nil {
		d.fail(fmt.Errorf("ingest: %w", err))
	}
	d.p.ingestSpan(sched, start, end)
}

// lagSample records schedule lag for non-publication activities.
func (d *driver) lagSample(sched time.Time) {
	if wait := time.Until(sched); wait > 0 {
		time.Sleep(wait)
	}
	d.mu.Lock()
	d.lagMS = append(d.lagMS, ms(time.Since(sched)))
	d.mu.Unlock()
}

// quiesce waits until the retrieval queue is empty and no delivery has
// happened for idle, bounded by limit.
func (d *driver) quiesce(idle, limit time.Duration) {
	deadline := time.Now().Add(limit)
	d.lastChange.Store(time.Now().UnixNano())
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		quiet := time.Since(time.Unix(0, d.lastChange.Load())) >= idle
		pending := 0
		for _, n := range d.st.brokers {
			pending += n.b.PushStats().QueueDepth
		}
		if quiet && d.q.len() == 0 && pending == 0 {
			return
		}
	}
}

// sampler records peaks of heap, goroutines, queue depths and cache size
// until stop closes, and marks the process CPU time and in-window
// deliveries at every sliceLen from the window start.
type peaks struct {
	heap, goroutines, pushQueue, cacheBytes int64
	marks                                   []sliceMark
}

// sliceMark is the process CPU time and the deliveries made inside the
// window so far, read at one instant.
type sliceMark struct {
	cpu       time.Duration
	delivered int64
}

const sliceLen = time.Second

func (d *driver) sample(t0 time.Time, stop <-chan struct{}, done chan<- peaks) {
	var pk peaks
	next := t0
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/sched/goroutines:goroutines"}}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		pk.heap = max(pk.heap, int64(s[0].Value.Uint64()))
		pk.goroutines = max(pk.goroutines, int64(s[1].Value.Uint64()))
		var depth, cache int64
		for _, n := range d.st.brokers {
			if d.p.traced {
				// QueueDepth sweeps every session under the hub's locks.
				depth += int64(n.b.PushStats().QueueDepth)
			}
			cache += n.b.Manager().TotalSize()
		}
		pk.pushQueue = max(pk.pushQueue, depth)
		pk.cacheBytes = max(pk.cacheBytes, cache)
		if now := time.Now(); !now.Before(next) {
			pk.marks = append(pk.marks, sliceMark{cpuTime(), d.inWindow.Load()})
			next = next.Add(sliceLen)
		}
		select {
		case <-stop:
			done <- pk
			return
		case <-tick.C:
		}
	}
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is a snapshot of the program's public counters, summed over
// brokers.
type counters struct {
	ingested, evalGroups, results, resultBytes            float64
	whDelivered, whFailed, whDropped                      uint64
	walSyncs                                              float64
	walBytes                                              int64
	requests, hits, hitBytes, missBytes, fetchBytes       float64
	evictions, peerHits, peerMisses                       float64
	pushEnq, pushCoal, pushDrop                           uint64
	flightLeaders, flightCoalesced                        uint64
	pulls, notifies, clusterBytes, deliveredBytes, srvErr int64
	gcCycles                                              uint32
	mallocs, allocBytes                                   uint64
	cpu                                                   time.Duration
}

func (d *driver) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cs := d.st.cluster.Stats()
	ws := d.st.notifier.Stats()
	c := counters{
		ingested: cs.Ingested.Value(), evalGroups: cs.EvalGroups.Value(),
		results: cs.ResultsProduced.Value(), resultBytes: cs.ResultBytes.Value(),
		whDelivered: ws.Delivered.Load(), whFailed: ws.Failed.Load(), whDropped: ws.Dropped.Load(),
		walSyncs: d.st.walSyncs(), walBytes: d.st.walBytes(),
		pulls: d.p.pulls.Load(), notifies: d.p.notifies.Load(),
		clusterBytes: d.p.clusterBytes.Load(), deliveredBytes: d.p.deliveredBytes.Load(),
		srvErr:   d.p.serverErrors.Load(),
		gcCycles: ms.NumGC, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, cpu: cpuTime(),
	}
	for _, n := range d.st.brokers {
		bst := n.b.Stats()
		c.requests += bst.Requests.Value()
		c.hits += bst.Hits.Value()
		c.hitBytes += bst.HitBytes.Value()
		c.missBytes += bst.MissBytes.Value()
		c.fetchBytes += bst.FetchBytes.Value()
		c.evictions += bst.Evictions.Value()
		c.peerHits += bst.PeerHits.Value()
		c.peerMisses += bst.PeerMisses.Value()
		ps := n.b.PushStats()
		c.pushEnq += ps.Enqueued
		c.pushCoal += ps.Coalesced
		c.pushDrop += ps.Dropped
		l, co := n.b.Manager().FlightStats()
		c.flightLeaders += l
		c.flightCoalesced += co
	}
	return c
}

// gcPauses returns the GC pause histogram's cumulative counts.
func gcPauses() *metrics.Float64Histogram {
	s := []metrics.Sample{{Name: "/sched/pauses/total/gc:seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	h := s[0].Value.Float64Histogram()
	return &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
}

// pauseP99 returns the p99 GC pause (ms) between two histogram snapshots.
func pauseP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, n := range delta {
		cum += n
		if cum >= want {
			return b.Buckets[i+1] * 1e3 // upper bound of the bucket
		}
	}
	return 0
}

// detachAll logs every subscriber out (end of run).
func (d *driver) detachAll() {
	for _, s := range d.subs {
		if s.online.Load() {
			d.logout(s)
		}
	}
}

// A percentile is taken over consecutive chunks of samples, in order of
// when each result became deliverable, and the median of the chunks'
// percentiles is reported: one disturbed stretch of a run does not set the
// figure. A chunk holds 25/(1-q) samples, so its q-quantile has at least 25
// samples beyond it.
func chunkSamples(q float64) int { return int(math.Ceil(25 / (1 - q))) }

type latSample struct {
	at time.Time // when the result became deliverable
	ms float64
}

// latencies holds latency samples in milliseconds.
type latencies struct{ s []latSample }

func (l *latencies) add(at time.Time, v float64) { l.s = append(l.s, latSample{at, v}) }

func (l *latencies) n() int { return len(l.s) }

// pct is the median over chunks of each chunk's q-quantile.
func (l *latencies) pct(q float64) float64 {
	s := append([]latSample(nil), l.s...)
	sort.Slice(s, func(i, j int) bool { return s[i].at.Before(s[j].at) })
	k := max(1, len(s)/chunkSamples(q))
	var per []float64
	for c := 0; c < k; c++ {
		chunk := s[c*len(s)/k : (c+1)*len(s)/k]
		vs := make([]float64, len(chunk))
		for i, x := range chunk {
			vs[i] = x.ms
		}
		per = append(per, quantile(vs, q))
	}
	return median(per)
}

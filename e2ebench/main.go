// Command e2ebench is the end-to-end delivery benchmark: it runs the real
// stack in one process (bdms cluster and webhook notifier, brokers with the
// core cache, optionally the BCS and a second broker), all talking over
// loopback HTTP, plays a seeded open-loop schedule against it, checks every
// delivered row against a reference, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run). METRICS.md lists
// every metric and what it should move.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload hot_fanout --seed 1 --seconds 15 --trace 0
//
// --workload all runs every workload in turn.
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gobad/internal/bdms"
	"gobad/internal/trace"
)

// buildDir is where runs keep scratch state (durable stores, spans); it
// is inside the checkout and ignored by git.
const buildDir = ".bench_build"

// setupReps is how many times an untraced run sets the stack up; setup_s
// is their median.
const setupReps = 5

// maxLagMS is the schedule lag (p99) beyond which the generator is deemed
// to have fallen behind and the run is invalid. Scheduling noise on a
// loaded 2-vCPU host reaches about 115 ms at p99 in wide_ingest without the
// generator losing its schedule; a stalled generator is far past this.
const maxLagMS = 250

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames()+", or all of them in turn: all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	scale := flag.Float64("rate-scale", 1, "multiplier on the workload's nominal rates (calibration runs)")
	flag.Parse()
	todo := workloads
	if *name != "all" {
		todo = nil
		if wl := findWorkload(*name); wl != nil {
			todo = []*workload{wl}
		}
	}
	if len(todo) == 0 || *seconds < 1 || (*traced != 0 && *traced != 1) || *scale <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s, all), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// With several workloads, each one's result line is printed as it
	// ends and the last line joins them, metrics named <workload>.<metric>.
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, wl := range todo {
		r, err := run(wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", wl.name+":", err)
			os.Exit(1)
		}
		if len(todo) == 1 {
			res = r
			break
		}
		out, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		fmt.Println("result", wl.name, string(out))
		res.Correct = res.Correct && r.Correct
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		for k, v := range r.Metrics {
			res.Metrics[wl.name+"."+k] = v
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures one workload; a traced run first repeats the untraced
// measurement so it can report the tracing overhead.
func run(wl *workload, seed int64, window time.Duration, traced bool, scale float64) (*result, error) {
	in := wl.generate(seed, window, scale)
	printMeta(wl, in, seed, window, scale)
	if !traced {
		m, err := measure(wl, in, window, false, setupReps)
		if err != nil {
			return nil, err
		}
		m.print()
		return m.result(endToEndMetrics(m)), nil
	}
	base, err := measure(wl, in, window, false, 1)
	if err != nil {
		return nil, err
	}
	m, err := measure(wl, in, window, true, 1)
	if err != nil {
		return nil, err
	}
	m.print()
	layers := m.layerMetrics()
	fmt.Printf("trace.overhead_result_latency_p50_ms %.4f ms\n",
		m.resultLat.pct(0.5)-base.resultLat.pct(0.5))
	fmt.Printf("trace.overhead_cpu_us_per_delivery %.4f us\n",
		m.cpuPerDelivery()-base.cpuPerDelivery())
	fmt.Printf("trace.spans %s\n", m.spansPath)
	return m.result(layers), nil
}

// measurement is everything one measured window produced.
type measurement struct {
	d         *driver
	window    time.Duration
	setups    []float64
	before    counters
	atEnd     counters // end of the window
	drained   counters // after the drain
	peaks     peaks
	pauses    []float64 // GC pauses inside the window, ms
	resultLat *latencies
	notifyLat *latencies
	expected  int64
	missing   int64
	violation int
	messages  []string
	invalid   []string
	spansPath string
}

func measure(wl *workload, in *inputs, window time.Duration, traced bool, reps int) (*measurement, error) {
	nproc := runtime.NumCPU()
	runDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer removeAll(runDir)
	m := &measurement{window: window}
	var st *stack
	var pubs [][]*pubRecord
	var datas [][]map[string]any
	for k := 0; k < reps; k++ {
		p := newProbe(traced, nproc)
		cfg := wl.stack
		cfg.storeDir = filepath.Join(runDir, fmt.Sprintf("store-%d", k))
		if in.cacheBudget > 0 {
			cfg.cacheBudget = in.cacheBudget
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		var err error
		if st, err = newStack(cfg, p); err != nil {
			return nil, err
		}
		d := newDriver(wl, st, p, nproc)
		if err := d.setup(in); err != nil {
			d.detachAll()
			st.close()
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		if k < reps-1 {
			d.detachAll()
			st.close()
			continue
		}
		m.d = d
		// Publications are built before the window so the driver does not
		// spend measured CPU on them.
		for _, pp := range in.pubs {
			recs, data := buildRecords(d, pp)
			pubs = append(pubs, recs)
			datas = append(datas, data)
		}
	}
	d := m.d
	defer st.close()
	defer d.detachAll()

	runtime.GC()
	retrievers := max(1, d.nproc-1)
	var wg sync.WaitGroup
	wg.Add(retrievers)
	for i := 0; i < retrievers; i++ {
		go d.retriever(&wg)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now().Add(20 * time.Millisecond)
	d.windowEnd.Store(t0.Add(window).UnixNano())
	m.before = d.snapshot()
	stop, peaksCh := make(chan struct{}), make(chan peaks, 1)
	go d.sample(t0, stop, peaksCh)

	cc := bdms.NewClient(st.csrv.url, d.p.http)
	if in.activities == nil {
		for i, pp := range in.pubs {
			d.publish(cc, t0.Add(pp.at), pubs[i], datas[i])
		}
	} else {
		d.play(in, t0, cc, pubs, datas)
	}
	if wait := time.Until(t0.Add(window)); wait > 0 {
		time.Sleep(wait)
	}
	m.atEnd = d.snapshot()
	endMark := sliceMark{m.atEnd.cpu, d.inWindow.Load()}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	m.pauses = pausesBetween(&ms0, &ms1)
	close(stop)
	m.peaks = <-peaksCh
	m.peaks.marks = append(m.peaks.marks, endMark)

	// Drain: let the pipeline settle; in the trace-driven workload every
	// subscriber then logs in once more to collect what it is owed.
	d.quiesce(300*time.Millisecond, 15*time.Second)
	if in.activities != nil {
		for _, s := range d.subs {
			if !s.online.Load() {
				d.login(s, true)
			}
		}
		d.quiesce(300*time.Millisecond, 15*time.Second)
	}
	d.q.close()
	wg.Wait()
	m.drained = d.snapshot()

	m.expected, m.missing = d.o.tally()
	m.violation, m.messages = d.o.report()
	d.mu.Lock()
	m.resultLat = &d.resultLat
	m.notifyLat = &latencies{}
	for _, f := range d.frames {
		if sched, ok := d.schedByKey[f.bs+"@"+itoa(f.ts)]; ok {
			m.notifyLat.add(sched, ms(f.at.Sub(sched)))
		}
	}
	lag := quantile(d.lagMS, 0.99)
	d.mu.Unlock()
	if lag > maxLagMS {
		m.invalid = append(m.invalid, fmt.Sprintf("generator fell behind: driver.lag_p99_ms %.1f > %d", lag, maxLagMS))
	}
	hosts := len(st.brokers) + 1
	if st.bcsSrv != nil {
		hosts++
	}
	if c := d.p.dialer.max.Load(); c > int64(nproc*hosts) {
		m.invalid = append(m.invalid, fmt.Sprintf("driver opened %d connections, cap %d", c, nproc*hosts))
	}
	if traced {
		stages, spans := d.p.pathBreakdown(d.pubIngest)
		for _, s := range pathStages {
			if vs := stages[s]; len(vs) > 0 {
				fmt.Printf("path.%s_ms %s\n", s, describe("self", vs))
			}
		}
		m.spansPath = filepath.Join(buildDir, "spans-"+wl.name+".jsonl")
		if err := writeSpans(m.spansPath, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return m, nil
}

// setup creates the subscribers, subscribes them (nproc at a time) and,
// for the workloads whose subscribers stay online, attaches their
// sessions.
func (d *driver) setup(in *inputs) error {
	subs := make([]*subscriber, len(in.subscribers))
	errs := make(chan error, d.nproc)
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(d.nproc)
	for w := 0; w < d.nproc; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				sp := in.subscribers[i]
				var node *brokerNode
				if sp.broker >= 0 {
					node = d.st.brokers[sp.broker]
				} else {
					n, err := d.place(sp.name)
					if err != nil {
						errs <- err
						return
					}
					node = n
				}
				s, err := d.newSubscriber(sp.name, node)
				if err != nil {
					errs <- err
					return
				}
				for _, p := range sp.subs {
					if err := d.subscribe(s, p.ch, p.params); err != nil {
						errs <- err
						return
					}
				}
				subs[i] = s
			}
		}()
	}
	var err error
feed:
	for i := range in.subscribers {
		select {
		case next <- i:
		case err = <-errs:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	d.subs = subs // in plan order, so runs with one seed are comparable
	if in.activities == nil {
		for _, s := range subs {
			d.login(s, false)
		}
	}
	return nil
}

// play runs the trace-driven schedule: publications and subscriber
// activities in time order, from one goroutine.
func (d *driver) play(in *inputs, t0 time.Time, cc *bdms.Client, pubs [][]*pubRecord, datas [][]map[string]any) {
	for _, a := range in.activities {
		if a.kind == trace.Publish {
			d.publish(cc, t0.Add(a.at), pubs[a.pubIx], datas[a.pubIx])
			continue
		}
		d.lagSample(t0.Add(a.at))
		s := d.byName[a.who]
		switch a.kind {
		case trace.Login:
			d.login(s, true)
		case trace.Logout:
			d.logout(s)
		case trace.Subscribe:
			s.mu.Lock()
			_ = d.subscribe(s, a.sub.ch, a.sub.params) // failures are counted
			s.mu.Unlock()
		case trace.Unsubscribe:
			s.mu.Lock()
			for _, t := range s.allTracks() {
				if t.ch == a.sub.ch && fmt.Sprint(t.params) == fmt.Sprint(a.sub.params) {
					d.unsubscribe(s, t, t0.Add(a.at))
				}
			}
			s.mu.Unlock()
		}
	}
}

func pausesBetween(a, b *runtime.MemStats) []float64 {
	var out []float64
	for n := a.NumGC + 1; n <= b.NumGC && b.NumGC-n < uint32(len(b.PauseNs)); n++ {
		out = append(out, float64(b.PauseNs[(n+255)%256])/1e6)
	}
	return out
}

func (m *measurement) deliveries() float64 { return float64(m.d.inWindow.Load()) }

// cpuPerDelivery is the median over the window's one-second slices of each
// slice's CPU time per delivery: a stretch of the run slowed by other load
// on the host moves one slice, not the figure.
func (m *measurement) cpuPerDelivery() float64 {
	var per []float64
	mk := m.peaks.marks
	for i := 1; i < len(mk); i++ {
		if n := mk[i].delivered - mk[i-1].delivered; n > 0 {
			per = append(per, float64(mk[i].cpu-mk[i-1].cpu)/float64(time.Microsecond)/float64(n))
		}
	}
	return median(per)
}

// cpuPerDeliveryWhole is CPU time over the whole window per delivery.
func (m *measurement) cpuPerDeliveryWhole() float64 {
	return ratio(float64(m.atEnd.cpu-m.before.cpu)/float64(time.Microsecond), m.deliveries())
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEndMetrics are the numbers a user of the system sees that stay
// steady enough between runs to gate a change on. The latency percentiles
// are printed beside them (see print) but not gated: on a shared 2-vCPU
// host their run-to-run spread reached 0.25-0.47 of the median.
func endToEndMetrics(m *measurement) map[string]metric {
	b, e, dr := m.before, m.atEnd, m.drained
	return map[string]metric{
		"setup_s":                          {median(m.setups), "s"},
		"deliveries_per_s":                 {m.deliveries() / m.window.Seconds(), "1/s"},
		"cpu_us_per_delivery":              {m.cpuPerDelivery(), "us"},
		"allocs_per_delivery":              {ratio(float64(e.mallocs-b.mallocs), m.deliveries()), "count"},
		"alloc_bytes_per_delivery":         {ratio(float64(e.allocBytes-b.allocBytes), m.deliveries()), "B"},
		"peak_heap_mb":                     {float64(m.peaks.heap) / (1 << 20), "MiB"},
		"cluster_bytes_per_delivered_byte": {ratio(float64(dr.clusterBytes-b.clusterBytes), float64(dr.deliveredBytes-b.deliveredBytes)), "ratio"},
		"delivered_ratio":                  {1 - ratio(float64(m.missing), float64(m.expected)), "ratio"},
	}
}

// layerMetrics are the per-layer numbers of a traced run.
func (m *measurement) layerMetrics() map[string]metric {
	d, b, dr := m.d, m.before, m.drained
	p := d.p
	p.mu.Lock()
	s := p.samples
	callbacks := float64(len(s["broker.callback_ms"]))
	var wsBytes, wsWrites, wsFrames int64
	for _, sc := range p.sessions {
		wsBytes += sc.bytes.Load()
		wsWrites += sc.writes.Load()
		wsFrames += sc.frames.Load()
	}
	p.mu.Unlock()
	d.mu.Lock()
	retrievals, empty, items := float64(d.retrievals), float64(d.empty), float64(d.items)
	lag := quantile(d.lagMS, 0.99)
	placements := float64(len(d.placeMS))
	d.mu.Unlock()
	delivered := float64(d.delivered.Load())
	ingested := dr.ingested - b.ingested
	enq, coal := float64(dr.pushEnq-b.pushEnq), float64(dr.pushCoal-b.pushCoal)
	peer := (dr.peerHits - b.peerHits) + (dr.peerMisses - b.peerMisses)
	out := map[string]metric{
		"bdms.ingest_ms_p50":                  {quantile(s["bdms.ingest_ms"], 0.5), "ms"},
		"bdms.ingest_ms_p99":                  {quantile(s["bdms.ingest_ms"], 0.99), "ms"},
		"bdms.evals_per_record":               {ratio(dr.evalGroups-b.evalGroups, ingested), "count"},
		"bdms.results_per_record":             {ratio(dr.results-b.results, ingested), "count"},
		"bdms.wal_bytes_per_record":           {ratio(float64(dr.walBytes-b.walBytes), ingested), "B"},
		"bdms.wal_syncs_per_1k_records":       {1000 * ratio(dr.walSyncs-b.walSyncs, ingested), "count"},
		"bdms.notify_us_p99":                  {quantile(s["bdms.notify_us"], 0.99), "us"},
		"bdms.webhook_posts_per_notification": {ratio(float64(dr.whDelivered-b.whDelivered), float64(dr.notifies-b.notifies)), "count"},
		"bdms.webhook_dropped":                {float64(dr.whDropped - b.whDropped), "count"},
		"bdms.webhook_failed":                 {float64(dr.whFailed - b.whFailed), "count"},
		"bdms.range_ms_p50":                   {quantile(s["bdms.range_ms"], 0.5), "ms"},
		"bdms.range_ms_p99":                   {quantile(s["bdms.range_ms"], 0.99), "ms"},
		"bdms.range_bytes_p50":                {quantile(s["bdms.range_bytes"], 0.5), "B"},
		"broker.callback_ms_p50":              {quantile(s["broker.callback_ms"], 0.5), "ms"},
		"broker.callback_ms_p99":              {quantile(s["broker.callback_ms"], 0.99), "ms"},
		"broker.pull_ms_p50":                  {quantile(s["broker.pull_ms"], 0.5), "ms"},
		"broker.pull_ms_p99":                  {quantile(s["broker.pull_ms"], 0.99), "ms"},
		"broker.pulls_per_notification":       {ratio(float64(dr.pulls-b.pulls), callbacks), "count"},
		"broker.push_frames_per_delivery":     {ratio(float64(wsFrames), delivered), "count"},
		"broker.push_coalesced_ratio":         {ratio(coal, enq+coal), "ratio"},
		"broker.push_dropped":                 {float64(dr.pushDrop - b.pushDrop), "count"},
		"broker.push_queue_depth_peak":        {float64(m.peaks.pushQueue), "count"},
		"broker.retrieve_ms_p50":              {quantile(s["broker.retrieve_ms"], 0.5), "ms"},
		"broker.retrieve_ms_p99":              {quantile(s["broker.retrieve_ms"], 0.99), "ms"},
		"broker.retrieve_bytes_p50":           {quantile(s["broker.retrieve_bytes"], 0.5), "B"},
		"broker.ack_ms_p50":                   {quantile(s["broker.ack_ms"], 0.5), "ms"},
		"broker.subscribe_ms_p50":             {quantile(s["broker.subscribe_ms"], 0.5), "ms"},
		"broker.peer_lookups_per_delivery":    {ratio(peer, delivered), "count"},
		"broker.peer_hit_ratio":               {ratio(dr.peerHits-b.peerHits, peer), "ratio"},
		"core.hit_ratio":                      {ratio(dr.hits-b.hits, dr.requests-b.requests), "ratio"},
		"core.byte_hit_ratio":                 {ratio(dr.hitBytes-b.hitBytes, (dr.hitBytes-b.hitBytes)+(dr.missBytes-b.missBytes)), "ratio"},
		"core.evictions_per_delivery":         {ratio(dr.evictions-b.evictions, delivered), "count"},
		"core.flight_coalesced_ratio":         {ratio(float64(dr.flightCoalesced-b.flightCoalesced), float64((dr.flightLeaders-b.flightLeaders)+(dr.flightCoalesced-b.flightCoalesced))), "ratio"},
		"core.cache_bytes_peak":               {float64(m.peaks.cacheBytes), "B"},
		"core.fetch_bytes_per_delivered_byte": {ratio(dr.fetchBytes-b.fetchBytes, float64(d.itemBytes.Load())), "ratio"},
		"wsock.bytes_per_frame":               {ratio(float64(wsBytes), float64(wsFrames)), "B"},
		"wsock.writes_per_frame":              {ratio(float64(wsWrites), float64(wsFrames)), "count"},
		"client.get_results_ms_p50":           {quantile(s["client.get_results_ms"], 0.5), "ms"},
		"client.get_results_ms_p99":           {quantile(s["client.get_results_ms"], 0.99), "ms"},
		"client.empty_retrieval_ratio":        {ratio(empty, retrievals), "ratio"},
		"client.items_per_retrieval":          {ratio(items, retrievals), "count"},
		"bcs.placements":                      {placements, "count"},
		"runtime.gc_cycles_per_1k_deliveries": {1000 * ratio(float64(m.atEnd.gcCycles-b.gcCycles), m.deliveries()), "count"},
		"runtime.gc_pause_p99_ms":             {quantile(m.pauses, 0.99), "ms"},
		"runtime.goroutines_peak":             {float64(m.peaks.goroutines), "count"},
		"driver.lag_p99_ms":                   {lag, "ms"},
		"driver.retrieval_backlog_peak":       {float64(d.q.peakLen()), "count"},
		"driver.conns_max":                    {float64(p.dialer.max.Load()), "count"},
	}
	// Layers on only some workloads' paths: printed, not part of the
	// fixed metric set, so a workload without the layer reports nothing.
	if len(s["broker.peer_ms"]) > 0 {
		fmt.Printf("broker.peer_ms_p50 %.4f ms (n=%d)\n", quantile(s["broker.peer_ms"], 0.5), len(s["broker.peer_ms"]))
	}
	if len(d.placeMS) > 0 {
		fmt.Printf("bcs.place_ms_p50 %.4f ms (n=%d)\n", quantile(d.placeMS, 0.5), len(d.placeMS))
	}
	for _, k := range sortedKeys(out) {
		fmt.Printf("%s %.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	return out
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes the run's human-readable summary: every end-to-end metric
// with its unit and sample count, loss and error ratios, and validity.
func (m *measurement) print() {
	e2e := endToEndMetrics(m)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		e2e[fmt.Sprintf("result_latency_p%.0f_ms", q*100)] = metric{m.resultLat.pct(q), "ms"}
		e2e[fmt.Sprintf("notify_latency_p%.0f_ms", q*100)] = metric{m.notifyLat.pct(q), "ms"}
	}
	att, fail := m.d.attempted.Load()+m.d.retrieves.Load(), m.d.failed.Load()
	e2e["cpu_us_per_delivery_whole_window"] = metric{m.cpuPerDeliveryWhole(), "us"}
	e2e["lost_ratio"] = metric{ratio(float64(m.missing), float64(m.expected)), "ratio"}
	e2e["error_ratio"] = metric{ratio(float64(fail), float64(att)), "ratio"}
	for _, k := range sortedKeys(e2e) {
		n := ""
		switch {
		case strings.HasPrefix(k, "result_latency"):
			n = fmt.Sprintf(" (n=%d)", m.resultLat.n())
		case strings.HasPrefix(k, "notify_latency"):
			n = fmt.Sprintf(" (n=%d)", m.notifyLat.n())
		case k == "lost_ratio":
			n = fmt.Sprintf(" (%d of %d owed rows missing)", m.missing, m.expected)
		case k == "error_ratio":
			n = fmt.Sprintf(" (%d of %d driver calls failed)", fail, att)
		}
		fmt.Printf("%s %.6g %s%s\n", k, e2e[k].Value, e2e[k].Unit, n)
	}
	m.d.mu.Lock()
	lag := quantile(m.d.lagMS, 0.99)
	m.d.mu.Unlock()
	fmt.Printf("driver.lag_p99_ms %.4g ms; driver.retrieval_backlog_peak %d; driver.conns_max %d; bdms.webhook_dropped %d; broker.push_dropped %d\n",
		lag, m.d.q.peakLen(), m.d.p.dialer.max.Load(), m.drained.whDropped-m.before.whDropped, m.drained.pushDrop-m.before.pushDrop)
	for _, msg := range m.d.o.lost {
		fmt.Fprintln(os.Stderr, "lost:", msg)
	}
	for _, msg := range m.messages {
		fmt.Fprintln(os.Stderr, "oracle:", msg)
	}
	for _, msg := range m.d.errSamples {
		fmt.Fprintln(os.Stderr, "error:", msg)
	}
	for _, msg := range m.invalid {
		fmt.Fprintln(os.Stderr, "invalid run:", msg)
	}
	if m.resultLat.n() < 1000 || m.notifyLat.n() < 1000 {
		fmt.Fprintf(os.Stderr, "warning: fewer than 1000 latency samples (result %d, notify %d)\n", m.resultLat.n(), m.notifyLat.n())
	}
}

// result folds the oracle, the driver's errors and the run's validity
// into the output object. attempted counts the scheduled driver calls, so
// one seed always gives one count; failed counts failed calls, retrievals
// included. Owed rows that never arrived are gated as delivered_ratio.
func (m *measurement) result(metrics map[string]metric) *result {
	for k, v := range metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			metrics[k] = metric{0, v.Unit}
		}
	}
	return &result{
		Correct:   m.violation == 0 && len(m.invalid) == 0,
		Attempted: max(1, m.d.attempted.Load()),
		Failed:    m.d.failed.Load(),
		Metrics:   metrics,
	}
}

// printMeta records the run's configuration and environment.
func printMeta(wl *workload, in *inputs, seed int64, window time.Duration, scale float64) {
	rates := map[string]float64{}
	for k, v := range wl.rates {
		rates[k] = v
		if k == "publications_per_s" || k == "batches_per_s" {
			rates[k] = v * scale
		}
	}
	meta := map[string]any{
		"workload": wl.name, "why": wl.why, "seed": seed, "window_s": window.Seconds(),
		"rate_scale": scale, "nominal_rates": rates,
		"subscribers": len(in.subscribers), "initial_subscriptions": in.subscriptions(),
		"publications": len(in.pubs), "records": in.records(), "brokers": wl.stack.brokers,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"request_goroutines": max(1, runtime.NumCPU()-1) + 1, "conns_per_host": runtime.NumCPU(),
		"go": runtime.Version(), "cpu": cpuModel(), "calibration": wl.calibration,
	}
	if in.cacheBudget > 0 {
		meta["cache_budget_bytes"] = in.cacheBudget
	}
	b, err := json.Marshal(meta)
	if err != nil {
		b = []byte(errors.New("meta: " + err.Error()).Error())
	}
	fmt.Println("meta", string(b))
}

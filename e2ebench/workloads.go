package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"gobad/internal/core"
	"gobad/internal/trace"
	wl "gobad/internal/workload"
)

// workload is one named traffic mix: its stack, its seeded inputs and the
// way the driver plays them.
type workload struct {
	name, why string
	stack     stackConfig
	// rates are the nominal open-loop rates at rate scale 1, picked at
	// about half the saturation point found by the calibration runs
	// (seed 1, 15 s windows, 2 vCPUs), which calibration records.
	rates       map[string]float64
	calibration []string
	generate    func(seed int64, window time.Duration, scale float64) *inputs
}

// subPlan is one subscription a subscriber makes.
type subPlan struct {
	ch     *channelSpec
	params []float64
}

// subscriberPlan is one subscriber with its initial subscriptions and,
// for single-broker workloads, the broker it uses.
type subscriberPlan struct {
	name   string
	broker int // -1: placed by the BCS
	subs   []subPlan
}

// pubPlan is one publication: its offset from the window start and the
// records it carries (one, or a batch).
type pubPlan struct {
	at   time.Duration
	recs []recordPlan
}

type recordPlan struct {
	fields map[string]float64
	pad    int
}

// activity is a subscriber action of the trace-driven workload.
type activity struct {
	at    time.Duration
	kind  trace.Kind
	who   string
	sub   subPlan
	pubIx int // index into pubs for trace.Publish
}

// inputs is everything a run plays, generated from the seed alone.
type inputs struct {
	subscribers []subscriberPlan
	pubs        []pubPlan
	activities  []activity // nil: publications only
	cacheBudget int64      // 0: the stack's default
}

func (in *inputs) subscriptions() int {
	n := 0
	for _, s := range in.subscribers {
		n += len(s.subs)
	}
	return n
}

func (in *inputs) records() int {
	n := 0
	for _, p := range in.pubs {
		n += len(p.recs)
	}
	return n
}

// arrivals returns n open-loop arrival offsets evenly spread over
// window: the schedule is fixed, so seeds differ only in what each
// publication carries and the latency percentiles do not move with
// chance clustering of arrivals.
func arrivals(n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + 0.5) / float64(n) * float64(window))
	}
	return out
}

// zipfWeights returns Zipf(s) probabilities over n ranks.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(k+1), -s)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// stratified returns n draws over the weights with exact (largest
// remainder) counts per rank, in seeded random order: the seed moves who
// gets which value, not how often each value occurs.
func stratified(rng *rand.Rand, weights []float64, n int) []int {
	counts := make([]int, len(weights))
	type rem struct {
		k int
		r float64
	}
	rems := make([]rem, len(weights))
	left := n
	for k, w := range weights {
		exact := w * float64(n)
		counts[k] = int(exact)
		left -= counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].r > rems[j].r })
	for i := 0; i < left; i++ {
		counts[rems[i%len(rems)].k]++
	}
	out := make([]int, 0, n)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

func padLen(rng *rand.Rand) int { return 100 + rng.Intn(200) }

var (
	zoneAlerts = &channelSpec{
		name: "ZoneAlerts", params: []string{"zone"},
		body:  "select * from Reports r where r.zone = $zone",
		match: eqPredicate("zone"),
	}
	keyAlerts = &channelSpec{
		name: "KeyAlerts", params: []string{"key"},
		body:  "select * from Reports r where r.key = $key",
		match: eqPredicate("key"),
	}
	scoreAbove = &channelSpec{
		name: "ScoreAbove", params: []string{"min"},
		body:  "select * from Reports r where r.score >= $min",
		match: gePredicate("score"),
	}
	zoneLevel = &channelSpec{
		name: "ZoneLevel", params: []string{"zone", "level"},
		body:  "select * from Reports r where r.zone = $zone and r.level >= $level",
		match: eqGePredicate("zone", "level"),
	}
)

var workloads = []*workload{hotFanout(), wideIngest(), backlogResume()}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// hotFanout: 2000 subscribers on one indexed equality channel with 40
// values, one Zipf(0.9) subscription each, single publications on a
// Poisson schedule. The session hub, wsock framing, broker retrieve/ack
// and the client carry the work; the cluster does one eval, one webhook
// and one pull per publication and the cache only serves hits.
func hotFanout() *workload {
	const subscribers, zones = 2000, 40
	w := &workload{
		name: "hot_fanout",
		why:  "one hot indexed channel, ~100 subscribers per result: session hub, wsock, broker retrieve/ack and client carry the load",
		stack: stackConfig{
			brokers: 1, policy: core.LSC{}, cacheBudget: 256 << 20,
			dataset: "Reports", channels: []*channelSpec{zoneAlerts},
		},
		rates: map[string]float64{"publications_per_s": 12},
		calibration: []string{
			"12/s: 1712 deliveries/s, result p90 75 ms, retrieval backlog peak 466",
			"24/s: 3379 deliveries/s, result p90 128 ms, backlog peak 1490",
			"30/s: 4220 deliveries/s, result p90 512 ms, backlog peak 6094 (backlog grows)",
			"36/s: 5029 deliveries/s, result p90 567 ms, p99 1.27 s, backlog peak 11611",
		},
	}
	w.generate = func(seed int64, window time.Duration, scale float64) *inputs {
		in := &inputs{}
		weights := zipfWeights(zones, 0.9)
		srng := rand.New(rand.NewSource(wl.DeriveSeed(seed, "hot_fanout/subscribers", 0)))
		for i, z := range stratified(srng, weights, subscribers) {
			in.subscribers = append(in.subscribers, subscriberPlan{
				name: fmt.Sprintf("hf-%04d", i), broker: 0,
				subs: []subPlan{{ch: zoneAlerts, params: []float64{float64(z)}}},
			})
		}
		prng := rand.New(rand.NewSource(wl.DeriveSeed(seed, "hot_fanout/publications", 0)))
		n := int(math.Round(w.rates["publications_per_s"] * scale * window.Seconds()))
		zonesOf := stratified(prng, weights, n)
		for i, at := range arrivals(n, window) {
			in.pubs = append(in.pubs, pubPlan{at: at, recs: []recordPlan{{
				fields: map[string]float64{"zone": float64(zonesOf[i]), "level": float64(prng.Intn(100))},
				pad:    padLen(prng),
			}}})
		}
		return in
	}
	return w
}

// wideIngest: PUSH model on a durable cluster (interval fsync). 1000
// distinct subscriptions, 800 on an indexed equality channel and 200 on a
// non-indexed threshold channel, each held by one subscriber on each of
// five brokers, so the cluster keeps 5000 subscriptions in 1000 evaluation
// groups and every broker fans each result out to one subscriber. Batches
// of 16 records arrive open-loop; most records match nothing.
func wideIngest() *workload {
	const (
		brokers    = 5
		keys       = 800
		thresholds = 200
		keySpace   = 20000
		batch      = 16
		// scoreBase is the lowest threshold; records below it match no
		// threshold subscription.
		scoreBase = 1000
	)
	w := &workload{
		name: "wide_ingest",
		why:  "push model, durable cluster, 5000 subscriptions in 1000 eval groups: ingest, grouped eval, WAL and webhook notifier carry the load",
		stack: stackConfig{
			brokers: brokers, push: true, durable: true, policy: core.LSC{}, cacheBudget: 64 << 20,
			dataset: "Reports", channels: []*channelSpec{keyAlerts, scoreAbove},
		},
		rates: map[string]float64{"batches_per_s": 100, "records_per_batch": batch},
		calibration: []string{
			"100 batches/s: 615 deliveries/s, result p90 15 ms, webhook drops 0",
			"200 batches/s: 1219 deliveries/s, result p90 29 ms, backlog peak 390, drops 0",
			"300 batches/s: 1804 deliveries/s, result p90 174 ms, backlog peak 1267, drops 0: retrieval saturates before the notifier drops",
		},
	}
	w.generate = func(seed int64, window time.Duration, scale float64) *inputs {
		in := &inputs{}
		srng := rand.New(rand.NewSource(wl.DeriveSeed(seed, "wide_ingest/subscriptions", 0)))
		var plans []subPlan
		for _, k := range srng.Perm(keySpace)[:keys] {
			plans = append(plans, subPlan{ch: keyAlerts, params: []float64{float64(k)}})
		}
		for j := 0; j < thresholds; j++ {
			plans = append(plans, subPlan{ch: scoreAbove, params: []float64{float64(scoreBase + j)}})
		}
		for i, pl := range plans {
			for b := 0; b < brokers; b++ {
				in.subscribers = append(in.subscribers, subscriberPlan{
					name: fmt.Sprintf("wi-%04d-%d", i, b), broker: b, subs: []subPlan{pl},
				})
			}
		}
		prng := rand.New(rand.NewSource(wl.DeriveSeed(seed, "wide_ingest/publications", 0)))
		n := int(math.Round(w.rates["batches_per_s"] * scale * window.Seconds()))
		// Exactly 4% of the records carry a subscribed key (five results
		// each) and 2% score just over the lowest thresholds (one to three
		// groups, five results each); the rest match nothing.
		records := n * batch
		kind := make([]int, records) // 0 miss, 1 key hit, 2 threshold hit
		for i := 0; i < records*4/100; i++ {
			kind[i] = 1
		}
		for i := records * 4 / 100; i < records*6/100; i++ {
			kind[i] = 2
		}
		prng.Shuffle(records, func(i, j int) { kind[i], kind[j] = kind[j], kind[i] })
		subscribed := map[float64]bool{}
		for _, pl := range plans[:keys] {
			subscribed[pl.params[0]] = true
		}
		hits := 0
		for i, at := range arrivals(n, window) {
			p := pubPlan{at: at}
			for r := 0; r < batch; r++ {
				key := float64(prng.Intn(keySpace))
				for subscribed[key] {
					key = float64(prng.Intn(keySpace))
				}
				score := float64(prng.Intn(scoreBase))
				switch kind[i*batch+r] {
				case 1:
					key = plans[prng.Intn(keys)].params[0]
				case 2:
					score = float64(scoreBase + hits%3)
					hits++
				}
				p.recs = append(p.recs, recordPlan{
					fields: map[string]float64{"key": key, "score": score},
					pad:    padLen(prng),
				})
			}
			in.pubs = append(in.pubs, p)
		}
		return in
	}
	return w
}

// backlogResume: the Section VI activity trace (trace.Generate: 400
// subscribers x ~9 subscriptions from a 2400-entry Zipf(0.7) pool,
// lognormal on/off sessions, 10% churn per login) over a continuous-only
// catalog, compressed so the trace spans the window. Subscribers are
// placed by the BCS over two fabric brokers whose LSC caches hold about a
// quarter of the bytes produced, so login retrievals span backlogs and miss
// into peer lookups and cluster range reads.
func backlogResume() *workload {
	const traceLen = 20 * time.Minute
	w := &workload{
		name: "backlog_resume",
		why:  "trace-driven logins over two fabric brokers with a cache of ~1/4 of the bytes: core eviction, peer lookups and bdms range reads",
		stack: stackConfig{
			brokers: 2, fabric: true, policy: core.LSC{},
			dataset: "Reports", channels: []*channelSpec{zoneAlerts, zoneLevel},
		},
		// 48/s rather than a lower rate: at 12/s the process idles most of
		// the window and its CPU per delivery fell by 20% when another
		// process loaded the host (METRICS.md); at 48/s by about 15%, and
		// costs paid per second rather than per delivery weigh less.
		rates: map[string]float64{"publications_per_s": 48, "trace_seconds_per_s": 0},
		calibration: []string{
			"12/s: 273 deliveries/s, result p90 9.7 ms",
			"24/s: 556 deliveries/s, result p90 9.9 ms",
			"48/s: 1133 deliveries/s, result p90 10.2 ms; login catch-up sets the retrieval backlog peak (~1.6k) at every rate",
			"96/s: 2129-2261 deliveries/s, result p90 21-29 ms, and 93-104 ms with a second CPU-bound process on the host",
		},
	}
	w.generate = func(seed int64, window time.Duration, scale float64) *inputs {
		speedup := traceLen.Seconds() / window.Seconds()
		w.rates["trace_seconds_per_s"] = speedup
		tr, err := trace.Generate(trace.GenConfig{
			Seed:                seed,
			Duration:            traceLen,
			Subscribers:         400,
			SubsPerSubscriber:   9,
			UniqueSubscriptions: 2400,
			ZipfS:               0.7,
			// Publications come from the fixed-count schedule below.
			PublishInterval: traceLen,
			OnMean:          8 * time.Minute,
			OffMean:         6 * time.Minute,
			ChurnProb:       0.1,
			Dataset:         "Reports",
			Channels: []wl.ChannelSpec{
				{Name: zoneAlerts.name, Params: zoneAlerts.params, Dataset: "Reports", Body: zoneAlerts.body},
				{Name: zoneLevel.name, Params: zoneLevel.params, Dataset: "Reports", Body: zoneLevel.body},
			},
		})
		if err != nil {
			panic(err) // the config above is fixed and valid
		}
		in := &inputs{}
		index := map[string]int{}
		started := map[string]bool{} // first logout seen: later subscribes are churn
		prng := rand.New(rand.NewSource(wl.DeriveSeed(seed, "backlog_resume/records", 0)))
		scaleAt := func(at time.Duration) time.Duration { return time.Duration(float64(at) / speedup) }
		n := int(math.Round(w.rates["publications_per_s"] * scale * window.Seconds()))
		zones, levels := stratified(prng, uniformWeights(100), n), stratified(prng, uniformWeights(100), n)
		for i, at := range arrivals(n, window) {
			in.pubs = append(in.pubs, pubPlan{at: at, recs: []recordPlan{{
				fields: map[string]float64{"zone": float64(zones[i]), "level": float64(levels[i])},
				pad:    padLen(prng),
			}}})
			in.activities = append(in.activities, activity{at: at, kind: trace.Publish, pubIx: i})
		}
		for _, a := range tr.Activities {
			if a.Kind == trace.Publish {
				continue
			}
			i, ok := index[a.Subscriber]
			if !ok {
				i = len(in.subscribers)
				index[a.Subscriber] = i
				in.subscribers = append(in.subscribers, subscriberPlan{name: a.Subscriber, broker: -1})
			}
			sp := &in.subscribers[i]
			var plan subPlan
			if a.Kind == trace.Subscribe || a.Kind == trace.Unsubscribe {
				plan = subPlan{ch: zoneAlerts, params: floats(a.Params)}
				if a.Channel == zoneLevel.name {
					plan.ch = zoneLevel
				}
			}
			if a.Kind == trace.Subscribe && !started[a.Subscriber] {
				sp.subs = append(sp.subs, plan) // initial set: made during set-up
				continue
			}
			if a.Kind == trace.Logout {
				started[a.Subscriber] = true
			}
			in.activities = append(in.activities, activity{at: scaleAt(a.At), kind: a.Kind, who: a.Subscriber, sub: plan})
		}
		sort.SliceStable(in.activities, func(i, j int) bool { return in.activities[i].at < in.activities[j].at })
		// Bytes the cluster produces: each publication lands in every
		// distinct matching subscription's result dataset.
		distinct := map[string]subPlan{}
		for _, s := range in.subscribers {
			for _, p := range s.subs {
				distinct[p.ch.name+fmt.Sprint(p.params)] = p
			}
		}
		var produced float64
		for _, p := range in.pubs {
			for _, sp := range distinct {
				if sp.ch.match(p.recs[0].fields, sp.params) {
					produced += float64(p.recs[0].pad + 60)
				}
			}
		}
		in.cacheBudget = int64(produced / 4 / float64(w.stack.brokers))
		return in
	}
	return w
}

func floats(vs []any) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		switch n := v.(type) {
		case float64:
			out[i] = n
		case int:
			out[i] = float64(n)
		}
	}
	return out
}

// buildRecords turns a publication plan into oracle records and wire data.
func buildRecords(d *driver, p pubPlan) ([]*pubRecord, []map[string]any) {
	recs := make([]*pubRecord, len(p.recs))
	data := make([]map[string]any, len(p.recs))
	for i, rp := range p.recs {
		pid := d.pids.Add(1)
		recs[i] = &pubRecord{pid: pid, fields: rp.fields}
		m := map[string]any{"pid": pid, "pad": strings.Repeat("x", rp.pad)}
		for k, v := range rp.fields {
			m[k] = v
		}
		data[i] = m
	}
	return recs, data
}

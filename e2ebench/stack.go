package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"gobad/internal/bcs"
	"gobad/internal/bdms"
	"gobad/internal/broker"
	"gobad/internal/core"
)

// stackConfig shapes the in-process deployment a workload runs on.
type stackConfig struct {
	brokers     int
	push        bool // PUSH model: webhooks carry the result objects
	durable     bool // bdms.OpenStore in storeDir, interval fsync
	storeDir    string
	policy      core.Policy
	cacheBudget int64
	fabric      bool // brokers cooperate through the BCS ring and peer lookups
	dataset     string
	channels    []*channelSpec
}

// server is one loopback HTTP server of the stack.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

// listen reserves a loopback port; serve starts answering on it. They are
// separate so a broker's callback URL is known before the broker exists.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

func serve(ln net.Listener, url string, h http.Handler) *server {
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  url,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s
}

func startServer(h http.Handler) (*server, error) {
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	return serve(ln, url, h), nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if s.srv.Shutdown(ctx) != nil {
		_ = s.srv.Close()
	}
	<-s.done
}

// brokerNode is one broker with its HTTP front.
type brokerNode struct {
	b   *broker.Broker
	srv *server
}

// stack is the running deployment: cluster, webhook notifier, brokers and
// optionally the BCS, all on loopback HTTP, wrapped by the benchmark's
// measuring middleware and decorators.
type stack struct {
	cfg      stackConfig
	cluster  *bdms.Cluster
	store    *bdms.Store
	notifier *bdms.WebhookNotifier
	csrv     *server
	brokers  []*brokerNode
	bcsSvc   *bcs.Service
	bcsSrv   *server
	// internal is the HTTP client the program's own components use to
	// talk to each other (webhooks, pulls, peer lookups); the driver's
	// calls go through the probe's capped client instead.
	internal *http.Client
}

func newStack(cfg stackConfig, p *probe) (st *stack, err error) {
	st = &stack{cfg: cfg, internal: &http.Client{Timeout: 30 * time.Second}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.notifier = bdms.NewWebhookNotifier(4, 1024, st.internal)
	opts := []bdms.Option{bdms.WithNotifier(&timedNotifier{inner: st.notifier, p: p})}
	if cfg.push {
		opts = append(opts, bdms.WithPushModel())
	}
	var srvOpts []bdms.ServerOption
	if cfg.durable {
		st.store, err = bdms.OpenStore(cfg.storeDir, bdms.StoreConfig{
			Sync:   bdms.SyncInterval,
			Logger: quietLogger(),
		}, opts...)
		if err != nil {
			return st, fmt.Errorf("open store: %w", err)
		}
		st.cluster = st.store.Cluster()
		srvOpts = append(srvOpts, bdms.WithStore(st.store))
	} else {
		st.cluster = bdms.NewCluster(opts...)
	}
	if st.csrv, err = startServer(p.middleware(sideCluster, bdms.NewServer(st.cluster, srvOpts...).Handler())); err != nil {
		return st, err
	}

	if cfg.fabric {
		st.bcsSvc = bcs.NewService()
		if st.bcsSrv, err = startServer(bcs.NewServer(st.bcsSvc).Handler()); err != nil {
			return st, err
		}
	}
	for i := 0; i < cfg.brokers; i++ {
		n := &brokerNode{}
		bcfg := broker.Config{
			ID:          fmt.Sprintf("broker-%d", i+1),
			Backend:     &timedBackend{inner: bdms.NewClient(st.csrv.url, st.internal), p: p},
			Policy:      cfg.policy,
			CacheBudget: cfg.cacheBudget,
		}
		if cfg.fabric {
			bcfg.Fabric = &broker.FabricConfig{Peers: bdms.NewPeerClient(st.internal)}
		}
		ln, url, err := listen()
		if err != nil {
			return st, err
		}
		bcfg.CallbackURL = url + "/v1/callbacks/results"
		if n.b, err = broker.New(bcfg); err != nil {
			ln.Close()
			return st, fmt.Errorf("broker: %w", err)
		}
		n.srv = serve(ln, url, p.middleware(sideBroker, broker.NewServer(n.b).Handler()))
		st.brokers = append(st.brokers, n)
		if cfg.fabric {
			if err := st.bcsSvc.Register(n.b.ID(), n.srv.url); err != nil {
				return st, fmt.Errorf("bcs register: %w", err)
			}
		}
	}
	if cfg.fabric {
		ring := st.bcsSvc.Ring()
		for _, n := range st.brokers {
			n.b.SetRing(ring)
		}
	}

	// The catalog goes in through the cluster's public API.
	cc := bdms.NewClient(st.csrv.url, p.http)
	if err := cc.CreateDataset(cfg.dataset, bdms.Schema{}); err != nil {
		return st, fmt.Errorf("create dataset: %w", err)
	}
	for _, ch := range cfg.channels {
		def := bdms.ChannelDef{Name: ch.name, Params: ch.params, Body: ch.body}
		if err := cc.DefineChannel(def); err != nil {
			return st, fmt.Errorf("define channel %s: %w", ch.name, err)
		}
	}
	return st, nil
}

// close tears the stack down: brokers drain (stopping their writer
// pools), servers shut down, the notifier and store close.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, n := range st.brokers {
		if n.b != nil {
			n.b.Drain(ctx, "")
		}
		n.srv.close()
	}
	if st.bcsSrv != nil {
		st.bcsSrv.close()
	}
	if st.csrv != nil {
		st.csrv.close()
	}
	if st.notifier != nil {
		st.notifier.Close()
	}
	if st.store != nil {
		_ = st.store.Close() // the directory is removed after the run
	}
	st.internal.CloseIdleConnections()
}

// walBytes is the on-disk size of the durable store's files.
func (st *stack) walBytes() int64 {
	if !st.cfg.durable {
		return 0
	}
	var total int64
	entries, _ := os.ReadDir(st.cfg.storeDir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasPrefix(e.Name(), "wal-") {
			total += info.Size()
		}
	}
	return total
}

func (st *stack) walSyncs() float64 {
	if ws := st.cluster.WALStats(); ws != nil {
		return ws.Fsyncs.Value()
	}
	return 0
}

// Server sides the middleware classifies routes for.
const (
	sideCluster = "bdms"
	sideBroker  = "broker"
)

// route names the layer operation an HTTP request performs.
func route(side string, r *http.Request) string {
	p := r.URL.Path
	switch side {
	case sideCluster:
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(p, "/records"),
			r.Method == http.MethodPost && strings.HasSuffix(p, "/records:batch"):
			return "bdms.ingest"
		case r.Method == http.MethodGet && strings.HasSuffix(p, "/results"):
			return "bdms.range"
		}
	case sideBroker:
		switch {
		case strings.HasSuffix(p, "/callbacks/results"):
			return "broker.callback"
		case strings.HasPrefix(p, "/v1/peer/results/"):
			return "broker.peer"
		case r.Method == http.MethodGet && strings.HasSuffix(p, "/results"):
			return "broker.retrieve"
		case r.Method == http.MethodPost && strings.HasSuffix(p, "/ack"):
			return "broker.ack"
		case r.Method == http.MethodPost && p == "/v1/subscriptions":
			return "broker.subscribe"
		case r.Method == http.MethodDelete:
			return "broker.unsubscribe"
		}
	}
	return side + ".other"
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

type countingReader struct {
	io.ReadCloser
	n   int64
	tee *bytes.Buffer // traced runs keep callback bodies to read their keys
}

func (r *countingReader) Read(b []byte) (int, error) {
	n, err := r.ReadCloser.Read(b)
	r.n += int64(n)
	if r.tee != nil && n > 0 {
		r.tee.Write(b[:n])
	}
	return n, err
}

// middleware measures every request to a server from outside: byte
// counts always, durations and spans only in traced runs.
func (p *probe) middleware(side string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := route(side, r)
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		body := &countingReader{ReadCloser: r.Body}
		if p.traced && name == "broker.callback" {
			body.tee = &bytes.Buffer{}
		}
		r.Body = body
		start := time.Now()
		h.ServeHTTP(cw, r)
		end := time.Now()
		switch name {
		case "bdms.range":
			p.clusterBytes.Add(cw.n)
		case "broker.callback":
			p.clusterBytes.Add(body.n)
		case "broker.retrieve":
			p.deliveredBytes.Add(cw.n)
		}
		if cw.status >= 500 {
			p.serverErrors.Add(1)
		}
		if p.traced {
			p.serverSpan(name, r, start, end, cw.n, body.tee)
		}
	})
}

// timedBackend decorates the broker's data-cluster connection: every pull
// (notification-driven, back-fill or miss re-fetch) is counted and, in
// traced runs, timed.
type timedBackend struct {
	inner *bdms.Client
	p     *probe
}

var _ broker.ResultsBackendContext = (*timedBackend)(nil)

func (b *timedBackend) Subscribe(channel string, params []any, callback string) (string, error) {
	return b.inner.Subscribe(channel, params, callback)
}

func (b *timedBackend) Unsubscribe(subID string) error { return b.inner.Unsubscribe(subID) }

func (b *timedBackend) LatestTimestamp(subID string) (time.Duration, error) {
	return b.inner.LatestTimestamp(subID)
}

func (b *timedBackend) Results(subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	return b.ResultsContext(context.Background(), subID, from, to, inclusiveTo)
}

func (b *timedBackend) ResultsContext(ctx context.Context, subID string, from, to time.Duration, inclusiveTo bool) ([]bdms.ResultObject, error) {
	start := time.Now()
	res, err := b.inner.ResultsContext(ctx, subID, from, to, inclusiveTo)
	b.p.pulls.Add(1)
	if b.p.traced {
		b.p.pullSpan(subID, start, time.Now())
	}
	return res, err
}

// timedNotifier decorates the cluster's webhook notifier: it counts the
// notifications handed to it and, in traced runs, times the hand-off.
type timedNotifier struct {
	inner *bdms.WebhookNotifier
	p     *probe
}

var (
	_ bdms.ContextNotifier     = (*timedNotifier)(nil)
	_ bdms.ContextPushNotifier = (*timedNotifier)(nil)
	_ bdms.PushNotifier        = (*timedNotifier)(nil)
)

func (n *timedNotifier) Notify(subID, callback string, latest time.Duration) {
	n.NotifyContext(context.Background(), subID, callback, latest)
}

func (n *timedNotifier) NotifyContext(ctx context.Context, subID, callback string, latest time.Duration) {
	start := time.Now()
	n.inner.NotifyContext(ctx, subID, callback, latest)
	n.p.notifies.Add(1)
	if n.p.traced {
		n.p.notifySpan(subID, int64(latest), start, time.Now())
	}
}

func (n *timedNotifier) NotifyPush(subID, callback string, obj bdms.ResultObject) {
	n.NotifyPushContext(context.Background(), subID, callback, obj)
}

func (n *timedNotifier) NotifyPushContext(ctx context.Context, subID, callback string, obj bdms.ResultObject) {
	start := time.Now()
	n.inner.NotifyPushContext(ctx, subID, callback, obj)
	n.p.notifies.Add(1)
	if n.p.traced {
		n.p.notifySpan(subID, int64(obj.Timestamp), start, time.Now())
	}
}

// countingDialer opens the driver's connections and tracks how many are
// open at once, so the run can prove it stayed within its cap.
type countingDialer struct {
	d    net.Dialer
	open atomic.Int64
	max  atomic.Int64
}

func (d *countingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	c, err := d.d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	n := d.open.Add(1)
	for {
		m := d.max.Load()
		if n <= m || d.max.CompareAndSwap(m, n) {
			break
		}
	}
	return &countedConn{Conn: c, d: d}, nil
}

type countedConn struct {
	net.Conn
	d      *countingDialer
	closed atomic.Bool
}

func (c *countedConn) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		c.d.open.Add(-1)
	}
	return c.Conn.Close()
}

// driverClient is the one HTTP client every driver-side call shares,
// holding at most perHost connections to each server.
func driverClient(d *countingDialer, perHost int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         d.DialContext,
			MaxConnsPerHost:     perHost,
			MaxIdleConnsPerHost: perHost,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// removeAll deletes a run's scratch directory, refusing anything outside
// the benchmark's build directory.
func removeAll(dir string) error {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	if !strings.Contains(abs, string(filepath.Separator)+buildDir+string(filepath.Separator)) {
		return errors.New("refusing to remove " + abs)
	}
	return os.RemoveAll(abs)
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }

package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// opText is the WebSocket text-frame opcode (RFC 6455 §5.2).
const opText = 0x1

// pushFrame is one decoded "results" push notification, stamped on arrival.
type pushFrame struct {
	BS       string
	LatestNS int64
	At       time.Time
}

// sessionConn is the benchmark-owned net.Conn behind one subscriber's
// broker session. The broker's pooled writers write real WebSocket frames
// into it; Write decodes them, stamps each "results" frame and hands it to
// onFrame without blocking, so thousands of subscribers cost no sockets
// while the hub's writer pool and wsock framing stay on the path.
type sessionConn struct {
	onFrame func(pushFrame)

	mu  sync.Mutex
	buf []byte // bytes of a frame split across Write calls

	writes atomic.Int64
	bytes  atomic.Int64
	frames atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
}

func newSessionConn(onFrame func(pushFrame)) *sessionConn {
	return &sessionConn{onFrame: onFrame, closed: make(chan struct{})}
}

// Write decodes every complete frame in p (plus any buffered prefix).
// onFrame must not block: it runs on the broker's writer goroutine.
func (c *sessionConn) Write(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	at := time.Now()
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	c.mu.Lock()
	c.buf = append(c.buf, p...)
	var frames []pushFrame
	for {
		op, payload, n, ok := parseFrame(c.buf)
		if !ok {
			break
		}
		c.buf = c.buf[n:]
		if op != opText {
			continue // close, ping and binary frames carry no notification
		}
		var msg struct {
			Type     string `json:"type"`
			BS       string `json:"bs"`
			LatestNS int64  `json:"latest_ns"`
		}
		if json.Unmarshal(payload, &msg) != nil || msg.Type != "results" {
			continue // migrate frames and anything unknown
		}
		frames = append(frames, pushFrame{BS: msg.BS, LatestNS: msg.LatestNS, At: at})
	}
	if len(c.buf) == 0 {
		c.buf = c.buf[:0:0] // release a large split-frame buffer
	}
	c.mu.Unlock()
	for _, f := range frames {
		c.frames.Add(1)
		c.onFrame(f)
	}
	return len(p), nil
}

// parseFrame decodes one frame from the front of b: 7-bit, 16-bit and
// 64-bit payload lengths, masked or not. ok is false until b holds the
// whole frame.
func parseFrame(b []byte) (op byte, payload []byte, n int, ok bool) {
	if len(b) < 2 {
		return 0, nil, 0, false
	}
	op = b[0] & 0x0f
	masked := b[1]&0x80 != 0
	length := uint64(b[1] & 0x7f)
	hdr := 2
	switch length {
	case 126:
		if len(b) < 4 {
			return 0, nil, 0, false
		}
		length = uint64(binary.BigEndian.Uint16(b[2:4]))
		hdr = 4
	case 127:
		if len(b) < 10 {
			return 0, nil, 0, false
		}
		length = binary.BigEndian.Uint64(b[2:10])
		hdr = 10
	}
	var key []byte
	if masked {
		if len(b) < hdr+4 {
			return 0, nil, 0, false
		}
		key = b[hdr : hdr+4]
		hdr += 4
	}
	if uint64(len(b)-hdr) < length {
		return 0, nil, 0, false
	}
	n = hdr + int(length)
	payload = b[hdr:n]
	if masked {
		unmasked := make([]byte, len(payload))
		for i := range payload {
			unmasked[i] = payload[i] ^ key[i%4]
		}
		payload = unmasked
	}
	return op, payload, n, true
}

// Read blocks until Close: nothing is ever sent toward the broker.
func (c *sessionConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, io.EOF
}

func (c *sessionConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *sessionConn) LocalAddr() net.Addr              { return benchAddr{} }
func (c *sessionConn) RemoteAddr() net.Addr             { return benchAddr{} }
func (c *sessionConn) SetDeadline(time.Time) error      { return nil }
func (c *sessionConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sessionConn) SetWriteDeadline(time.Time) error { return nil }

type benchAddr struct{}

func (benchAddr) Network() string { return "bench" }
func (benchAddr) String() string  { return "bench-session" }

// retrieval is one queued GetResults a subscriber owes itself: after a
// push frame, or on login for each of its subscriptions.
type retrieval struct {
	sub   *subscriber
	track *subTrack
	gen   int64 // the subscriber's login generation when queued; 0 for none
}

// retrievalQueue is unbounded so a session conn's Write never waits for
// the retrievers; its peak depth is reported instead.
type retrievalQueue struct {
	mu     sync.Mutex
	items  []retrieval
	peak   int
	closed bool
	wake   chan struct{} // one pending wake-up token
	done   chan struct{}
}

func newRetrievalQueue() *retrievalQueue {
	return &retrievalQueue{wake: make(chan struct{}, 1), done: make(chan struct{})}
}

func (q *retrievalQueue) push(r retrieval) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, r)
	if len(q.items) > q.peak {
		q.peak = len(q.items)
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop returns the oldest item, blocking until one exists; ok is false once
// the queue is closed and empty.
func (q *retrievalQueue) pop() (retrieval, bool) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			r := q.items[0]
			q.items[0] = retrieval{}
			q.items = q.items[1:]
			more := len(q.items) > 0
			if !more {
				q.items = nil
			}
			q.mu.Unlock()
			if more {
				// Pass the wake-up on: pushes that found the token slot
				// full left work for another waiting retriever.
				select {
				case q.wake <- struct{}{}:
				default:
				}
			}
			return r, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return retrieval{}, false
		}
		select {
		case <-q.wake:
		case <-q.done:
		}
	}
}

func (q *retrievalQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

func (q *retrievalQueue) peakLen() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peak
}

// close makes pop return false once the queue is empty; later pushes are
// dropped.
func (q *retrievalQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.done)
	}
}

package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gobad/internal/wsock"
)

// collect returns a session conn whose decoded frames land in the slice.
func collect() (*sessionConn, *[]pushFrame) {
	var got []pushFrame
	return newSessionConn(func(f pushFrame) { got = append(got, f) }), &got
}

func resultsPayload(t *testing.T, bs string, latest int64, pad int) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"type": "results", "bs": bs, "latest_ns": latest, "pad": strings.Repeat("p", pad),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSessionConnDecodesBrokerFrames writes through the real wsock
// server-side framing: a payload under 126 bytes uses the 7-bit length, one
// over it the 16-bit length.
func TestSessionConnDecodesBrokerFrames(t *testing.T) {
	sc, got := collect()
	conn := wsock.NewConn(sc, false)
	small := resultsPayload(t, "bsub-1", 11, 0)
	large := resultsPayload(t, "bsub-2", 22, 400)
	if len(small) >= 126 || len(large) < 126 || len(large) > 0xffff {
		t.Fatalf("payload sizes %d, %d do not cover both length forms", len(small), len(large))
	}
	for _, p := range [][]byte{small, large} {
		if err := conn.WriteMessage(wsock.OpText, p); err != nil {
			t.Fatal(err)
		}
	}
	if len(*got) != 2 {
		t.Fatalf("decoded %d frames, want 2", len(*got))
	}
	if f := (*got)[0]; f.BS != "bsub-1" || f.LatestNS != 11 || f.At.IsZero() {
		t.Errorf("first frame %+v", f)
	}
	if f := (*got)[1]; f.BS != "bsub-2" || f.LatestNS != 22 {
		t.Errorf("second frame %+v", f)
	}
	if sc.frames.Load() != 2 || sc.writes.Load() < 2 {
		t.Errorf("counters frames=%d writes=%d", sc.frames.Load(), sc.writes.Load())
	}
}

// TestSessionConnIgnoresNonResults drops migrate notices and close frames.
func TestSessionConnIgnoresNonResults(t *testing.T) {
	sc, got := collect()
	conn := wsock.NewConn(sc, false)
	if err := conn.WriteMessage(wsock.OpText, []byte(`{"type":"migrate","bs":"bsub-1","latest_ns":5}`)); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseWith(wsock.CloseServiceRestart, "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatalf("decoded %d frames from migrate/close, want 0", len(*got))
	}
	if _, err := sc.Write([]byte{0x81, 0}); err == nil {
		t.Error("write after close succeeded")
	}
}

// TestSessionConnSplitWrites feeds frames in pieces cut inside the header,
// inside the 16-bit length and inside the payload.
func TestSessionConnSplitWrites(t *testing.T) {
	small := resultsPayload(t, "a", 1, 0)
	large := resultsPayload(t, "b", 2, 300)
	wire := append([]byte{0x81, byte(len(small))}, small...)
	wire = append(wire, 0x81, 126, byte(len(large)>>8), byte(len(large)))
	wire = append(wire, large...)
	for _, cuts := range [][]int{{1}, {2, 5}, {len(small) + 3}, {len(small) + 5, len(small) + 40}} {
		sc, got := collect()
		prev := 0
		for _, c := range append(cuts, len(wire)) {
			if n, err := sc.Write(wire[prev:c]); err != nil || n != c-prev {
				t.Fatalf("cuts %v: Write = %d, %v", cuts, n, err)
			}
			prev = c
		}
		if len(*got) != 2 || (*got)[0].BS != "a" || (*got)[1].BS != "b" || (*got)[1].LatestNS != 2 {
			t.Errorf("cuts %v: decoded %+v", cuts, *got)
		}
	}
}

func TestParseFrameMaskedAnd64Bit(t *testing.T) {
	payload := []byte(`{"type":"results","bs":"m","latest_ns":9}`)
	key := []byte{1, 2, 3, 4}
	wire := []byte{0x81, 0x80 | byte(len(payload))}
	wire = append(wire, key...)
	for i, b := range payload {
		wire = append(wire, b^key[i%4])
	}
	op, p, n, ok := parseFrame(wire)
	if !ok || op != opText || n != len(wire) || string(p) != string(payload) {
		t.Fatalf("masked frame: op=%d ok=%v n=%d payload=%q", op, ok, n, p)
	}
	long := append([]byte{0x82, 127, 0, 0, 0, 0, 0, 0, 0, 3}, 'x', 'y', 'z')
	if op, p, n, ok := parseFrame(long); !ok || op != 0x2 || n != len(long) || string(p) != "xyz" {
		t.Fatalf("64-bit frame: op=%d ok=%v n=%d payload=%q", op, ok, n, p)
	}
	if _, _, _, ok := parseFrame(long[:9]); ok {
		t.Fatal("incomplete 64-bit header parsed")
	}
}

// TestSessionWriteNeverBlocks: with no retriever running, Write keeps
// returning while the unbounded queue records its peak.
func TestSessionWriteNeverBlocks(t *testing.T) {
	q := newRetrievalQueue()
	sc := newSessionConn(func(pushFrame) { q.push(retrieval{}) })
	conn := wsock.NewConn(sc, false)
	payload := resultsPayload(t, "bsub-1", 1, 0)
	const frames = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			if err := conn.WriteMessage(wsock.OpText, payload); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Write blocked with no consumer")
	}
	if q.len() != frames || q.peakLen() != frames {
		t.Fatalf("queue len %d peak %d, want %d", q.len(), q.peakLen(), frames)
	}
	q.close()
	n := 0
	for {
		if _, ok := q.pop(); !ok {
			break
		}
		n++
	}
	if n != frames {
		t.Fatalf("drained %d after close, want %d", n, frames)
	}
}

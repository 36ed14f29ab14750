package opusnet

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveTestConn wires ServeConn to one end of a pipe with the given
// dispatch and returns the peer end plus a done channel.
func serveTestConn(dispatch func(msg *Message, reply func(*Message, bool), cs *ConnState)) (net.Conn, chan struct{}) {
	peer, served := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer served.Close()
		ServeConn(served, dispatch)
	}()
	return peer, done
}

// TestServeConnRoundTrip: requests dispatch and required replies reach
// the peer, correlated by seq.
func TestServeConnRoundTrip(t *testing.T) {
	peer, done := serveTestConn(func(msg *Message, reply func(*Message, bool), cs *ConnState) {
		reply(&Message{Type: MsgAck, Seq: msg.Seq}, true)
	})
	defer peer.Close()
	for seq := uint64(1); seq <= 3; seq++ {
		if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: seq}); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadMessage(peer)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != MsgAck || resp.Seq != seq {
			t.Fatalf("reply = %+v", resp)
		}
	}
	_ = peer.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not return after the peer closed")
	}
}

// TestServeConnCancelRegistry: a registered wait is cancelled by a
// MsgCancel frame for its seq, and every still-registered wait is
// cancelled when the connection tears down.
func TestServeConnCancelRegistry(t *testing.T) {
	type wait struct {
		seq uint64
		ctx context.Context
	}
	waits := make(chan wait, 4)
	peer, done := serveTestConn(func(msg *Message, reply func(*Message, bool), cs *ConnState) {
		switch msg.Type {
		case MsgCancel:
			cs.CancelSeq(msg.Seq)
		default:
			ctx, cancel := context.WithCancel(context.Background())
			if !cs.Register(msg.Seq, cancel) {
				cancel()
				return
			}
			waits <- wait{msg.Seq, ctx}
		}
	})
	for seq := uint64(1); seq <= 2; seq++ {
		if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	w1, w2 := <-waits, <-waits
	if err := WriteMessage(peer, &Message{Type: MsgCancel, Seq: w1.seq}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w1.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("MsgCancel did not cancel the registered wait")
	}
	if w2.ctx.Err() != nil {
		t.Fatal("cancel for seq 1 leaked to seq 2")
	}
	// Cancelling an unknown seq is a no-op.
	if err := WriteMessage(peer, &Message{Type: MsgCancel, Seq: 99}); err != nil {
		t.Fatal(err)
	}
	// Teardown cancels the survivors.
	_ = peer.Close()
	select {
	case <-w2.ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("connection teardown did not cancel the remaining wait")
	}
	<-done
	// After teardown, Register refuses (the unregister path is also
	// exercised: an unregistered seq stays cancellable-as-no-op).
	var cs *ConnState
	// Grab a fresh ConnState through a second served conn to check
	// Unregister explicitly.
	peer2, done2 := serveTestConn(func(msg *Message, reply func(*Message, bool), s *ConnState) {
		cs = s
		_, cancel := context.WithCancel(context.Background())
		s.Register(msg.Seq, cancel)
		s.Unregister(msg.Seq)
		reply(&Message{Type: MsgAck, Seq: msg.Seq}, true)
	})
	if err := WriteMessage(peer2, &Message{Type: MsgStatsReq, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(peer2); err != nil {
		t.Fatal(err)
	}
	cs.CancelSeq(7) // unregistered: must be a no-op, not a panic
	_ = peer2.Close()
	<-done2
	if cs.Register(8, func() {}) {
		t.Fatal("Register succeeded on a torn-down connection")
	}
}

// TestServeConnLateRepliesDropped: replies issued after the read loop
// exits are dropped without panicking — the fan-out-broadcasts-late
// scenario.
func TestServeConnLateRepliesDropped(t *testing.T) {
	var mu sync.Mutex
	var lateReply func(*Message, bool)
	peer, done := serveTestConn(func(msg *Message, reply func(*Message, bool), cs *ConnState) {
		mu.Lock()
		lateReply = reply
		mu.Unlock()
		reply(&Message{Type: MsgAck, Seq: msg.Seq}, true)
	})
	if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(peer); err != nil {
		t.Fatal(err)
	}
	_ = peer.Close()
	<-done
	mu.Lock()
	reply := lateReply
	mu.Unlock()
	reply(&Message{Type: MsgExpProgress, Seq: 1, Progress: &GridProgress{Done: 1, Total: 2}}, false)
	reply(&Message{Type: MsgAck, Seq: 1}, true) // must not panic on the closed queue
}

// TestServeConnClosesOnUnwritableReply: a reply that cannot be encoded
// (oversized frame) closes the connection so the peer sees an error
// instead of waiting forever.
func TestServeConnClosesOnUnwritableReply(t *testing.T) {
	huge := strings.Repeat("x", maxFrame+1)
	peer, done := serveTestConn(func(msg *Message, reply func(*Message, bool), cs *ConnState) {
		reply(&Message{Type: MsgErr, Seq: msg.Seq, Error: huge}, true)
	})
	if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMessage(peer); err == nil {
		t.Fatal("peer received a reply that should have been unencodable")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeConn did not wind down after the write error")
	}
}

// TestServeConnWedgedPeerClosed: a peer that stops reading while
// required replies pile up past the queue bound gets its connection
// closed (it observes an error) instead of wedging the server.
func TestServeConnWedgedPeerClosed(t *testing.T) {
	flood := serveReplyBuffer + 8
	peer, done := serveTestConn(func(msg *Message, reply func(*Message, bool), cs *ConnState) {
		go func() {
			for i := 0; i < flood; i++ {
				reply(&Message{Type: MsgAck, Seq: msg.Seq}, true)
			}
		}()
	})
	if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	// Never read a reply: the writer blocks on the pipe, the queue
	// fills, and the overflowing required reply closes the conn.
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wedged peer did not get its connection closed")
	}
	// The peer's next write observes the closed pipe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: 2}); err != nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("peer writes kept succeeding on a closed connection")
		}
	}
}

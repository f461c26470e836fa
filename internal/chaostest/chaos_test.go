package chaostest

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// waitPeerBackoff polls node a's stats until its single peer's backoff
// window satisfies ok, returning the stats that did.
func waitPeerBackoff(t *testing.T, a *Node, ok func(ms int64) bool) server.Stats {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	for {
		stats, err := a.Client().Stats(ctx)
		if err == nil && len(stats.Peers) == 1 && ok(stats.Peers[0].BackoffMs) {
			return stats
		}
		if time.Now().After(deadline) {
			t.Fatalf("peer backoff never satisfied predicate (stats %+v, err %v)", stats.Peers, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicatorBackoffUnderPartition proves satellite 4 against real
// processes and real sockets: partition a peer link with the chaos proxy
// and the replicator's retry window doubles up to -gossip-backoff-max
// (visible as peer_backoff_ms in /v1/stats) instead of hammering the dead
// link every tick; heal the partition and the backlog ships, the window
// resets to zero, and both daemons answer queries byte-identically.
func TestReplicatorBackoffUnderPartition(t *testing.T) {
	sketchdBinary(t)
	ctx := context.Background()

	b := NewNode(t, "b")
	b.Start("-width", "1024", "-depth", "4", "-k", "32", "-seed", "5")
	proxy := NewProxy(t, b.Addr)
	proxy.Reject(true)
	a := NewNode(t, "a")
	a.Start("-width", "1024", "-depth", "4", "-k", "32", "-seed", "5",
		"-peers", proxy.URL(), "-gossip-every", "25ms", "-gossip-backoff-max", "400ms")
	a.WaitHealthy()
	b.WaitHealthy()

	if err := a.Client().Update(ctx, []engine.Update{{Item: 1, Delta: 1000}}); err != nil {
		t.Fatal(err)
	}

	// The window must grow across failures: catch it small, then at the cap.
	stats := waitPeerBackoff(t, a, func(ms int64) bool { return ms > 0 })
	first := stats.Peers[0].BackoffMs
	stats = waitPeerBackoff(t, a, func(ms int64) bool { return ms >= 400 })
	if first >= 400 {
		t.Logf("first observed window already at the cap (%dms) — growth raced the poll", first)
	}
	if stats.Peers[0].BackoffMs > 400 {
		t.Fatalf("backoff window %dms exceeds the 400ms cap", stats.Peers[0].BackoffMs)
	}
	if stats.Peers[0].LastError == "" {
		t.Fatal("partitioned peer shows no last_error")
	}

	// Heal: the pending frame ships, exactly once, and the window resets.
	proxy.Reject(false)
	b.WaitMass(1000)
	waitPeerBackoff(t, a, func(ms int64) bool { return ms == 0 })

	items := []uint64{1, 2, 3}
	if got, want := a.QueryRaw(items), b.QueryRaw(items); !bytes.Equal(got, want) {
		t.Fatalf("healed peers disagree:\n a: %s\n b: %s", got, want)
	}
}

// TestGossipHealsAfterMidFrameKills cuts the replication link mid-frame —
// every connection dies after 300 relayed bytes, so delta frames are
// repeatedly severed partway through the request body (and sometimes after
// the receiver applied but before the ack got back, the ambiguous case the
// watermark protocol exists for). Once the fault lifts the mesh must
// converge to exactly the ingested mass: nothing lost from the severed
// frames, nothing doubled by the retries of ambiguous ones.
func TestGossipHealsAfterMidFrameKills(t *testing.T) {
	sketchdBinary(t)
	ctx := context.Background()

	b := NewNode(t, "b")
	b.Start("-width", "1024", "-depth", "4", "-k", "32", "-seed", "9")
	proxy := NewProxy(t, b.Addr)
	proxy.KillAfterBytes(300)
	a := NewNode(t, "a")
	a.Start("-width", "1024", "-depth", "4", "-k", "32", "-seed", "9",
		"-peers", proxy.URL(), "-gossip-every", "20ms", "-gossip-backoff-max", "150ms")
	a.WaitHealthy()
	b.WaitHealthy()

	if err := a.Client().Update(ctx, []engine.Update{{Item: 7, Delta: 500}, {Item: 8, Delta: 250}}); err != nil {
		t.Fatal(err)
	}
	// Let several frames die mid-body before healing.
	waitPeerBackoff(t, a, func(ms int64) bool { return ms > 0 })
	proxy.KillAfterBytes(0)
	b.WaitMass(750)

	// Second round: sever live connections at random moments while the next
	// backlog drains.
	if err := a.Client().Update(ctx, []engine.Update{{Item: 9, Delta: 300}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(15 * time.Millisecond)
		proxy.KillActive()
	}
	b.WaitMass(1050)

	items := []uint64{7, 8, 9}
	if got, want := a.QueryRaw(items), b.QueryRaw(items); !bytes.Equal(got, want) {
		t.Fatalf("healed peers disagree:\n a: %s\n b: %s", got, want)
	}
}

// TestTricklingHeaderIsDisconnected is the slowloris check on the real
// binary: a client whose request header reaches the daemon at 64 bytes a
// second (its own pace, held to it by the proxy's throttle) would need ten
// seconds to finish it, and the daemon gives up on the connection at its
// five-second header deadline instead of holding the socket — while a healthy
// client on the same listener is served throughout.
func TestTricklingHeaderIsDisconnected(t *testing.T) {
	sketchdBinary(t)
	n := NewNode(t, "n")
	n.Start("-width", "256", "-depth", "4", "-k", "8")
	n.WaitHealthy()
	proxy := NewProxy(t, n.Addr)
	proxy.SetThrottle(64)

	slow, err := net.Dial("tcp", proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	header := "GET /v1/healthz HTTP/1.1\r\nHost: sketchd\r\nX-Padding: " + strings.Repeat("x", 580) + "\r\n\r\n"
	go func() {
		// Writes fail once the daemon has hung up and the proxy dropped us.
		for len(header) > 0 {
			piece := header[:min(16, len(header))]
			if _, err := slow.Write([]byte(piece)); err != nil {
				return
			}
			header = header[len(piece):]
			time.Sleep(250 * time.Millisecond)
		}
	}()
	// Whatever the daemon says before closing comes back through the same
	// throttle; a connection cut at the deadline yields nothing or net/http's
	// canned 400, never the 200 a daemon that sat the trickle out would send.
	answer := make(chan []byte, 1)
	go func() {
		slow.SetReadDeadline(time.Now().Add(30 * time.Second))
		data, _ := io.ReadAll(slow)
		answer <- data
	}()

	healthy := &http.Client{Timeout: 2 * time.Second}
	served := 0
	for {
		select {
		case data := <-answer:
			waited := time.Since(start)
			if bytes.HasPrefix(data, []byte("HTTP/1.1 200")) {
				t.Fatalf("the daemon served a request whose header took ten seconds to arrive (answered after %v), want the connection cut at the header deadline", waited)
			}
			if waited > 9*time.Second {
				t.Fatalf("the trickling client was cut off only after %v, want the five-second header deadline", waited)
			}
			if served == 0 {
				t.Fatal("no healthy request completed while the slow header trickled in")
			}
			t.Logf("trickling client cut off after %v with %q; %d healthy requests served meanwhile", waited.Round(time.Millisecond), data, served)
			return
		default:
		}
		res, err := healthy.Get(n.URL() + "/v1/healthz")
		if err != nil {
			t.Fatalf("healthy client on the same listener: %v", err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("healthy client on the same listener: %s", res.Status)
		}
		served++
		time.Sleep(50 * time.Millisecond)
	}
}

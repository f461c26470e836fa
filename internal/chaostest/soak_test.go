package chaostest

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSoakKillRestartBootstrapMesh is the end-to-end node-replacement soak:
// a three-daemon gossip mesh ingests a deterministic stream that is
// mirrored into a standalone reference daemon, and each node is SIGKILLed
// once, wiped, and restarted with -bootstrap-from while the stream keeps
// flowing through the survivors. One replacement is additionally killed
// *during* its own bootstrap (mid state transfer, reads still gated) and
// replaced again. At the end every node must hold exactly the reference
// mass and answer a dense /v1/query byte-identically to the reference —
// the linearity bar: a mesh that lost and replaced every member is
// indistinguishable from one process that saw the whole stream.
func TestSoakKillRestartBootstrapMesh(t *testing.T) {
	if raceEnabled {
		t.Skip("soak spawns subprocesses the race detector cannot instrument; skipped under -race")
	}
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	sketchdBinary(t)
	ctx := context.Background()

	common := []string{"-width", "2048", "-depth", "4", "-k", "48", "-seed", "7"}
	ref := NewNode(t, "ref")
	ref.Start(common...)

	nodes := []*Node{NewNode(t, "n0"), NewNode(t, "n1"), NewNode(t, "n2")}
	peersOf := func(i int) string {
		var urls []string
		for j, n := range nodes {
			if j != i {
				urls = append(urls, n.URL())
			}
		}
		return strings.Join(urls, ",")
	}
	meshArgs := func(i int) []string {
		return append(append([]string{}, common...),
			"-peers", peersOf(i),
			"-gossip-every", "40ms",
			"-gossip-backoff-max", "300ms",
			"-bootstrap-retry", "200ms")
	}
	for i, n := range nodes {
		n.Start(meshArgs(i)...)
	}
	ref.WaitHealthy()
	for _, n := range nodes {
		n.WaitHealthy()
	}

	// Deterministic stream: every chunk ingested by some mesh node is also
	// ingested by the reference, synchronously, so the expected totals are
	// exact at every point no matter which nodes are alive.
	var lcg uint64 = 0x9E3779B97F4A7C15
	var expected float64
	feed := func(n *Node, chunks int) {
		t.Helper()
		for c := 0; c < chunks; c++ {
			items, deltas := make([]uint64, 400), make([]float64, 400)
			for j := range items {
				lcg = lcg*6364136223846793005 + 1442695040888963407
				items[j], deltas[j] = (lcg>>33)%2048, 1
			}
			if err := n.Client().UpdateColumns(ctx, items, deltas); err != nil {
				t.Fatalf("feed %s: %v", n.Name, err)
			}
			if err := ref.Client().UpdateColumns(ctx, items, deltas); err != nil {
				t.Fatalf("feed ref: %v", err)
			}
			expected += 400
		}
	}
	// quiesce waits until gossip has drained: every live mesh node holds
	// exactly the reference mass. Called before a kill so the victim's
	// in-flight contribution is zero (an update severed inside a dying
	// process is unobservable; the protocol's ambiguity handling is
	// exercised on the gossip links instead, where it is observable).
	quiesce := func() {
		t.Helper()
		for _, n := range nodes {
			n.WaitMass(expected)
		}
	}

	// Warm-up: all three lanes ingest and gossip.
	for _, n := range nodes {
		feed(n, 5)
	}

	for i, victim := range nodes {
		quiesce()
		victim.Kill()
		victim.Wipe()
		s1, s2 := nodes[(i+1)%3], nodes[(i+2)%3]
		// The stream does not stop because a node died.
		feed(s1, 3)
		feed(s2, 3)

		if i == len(nodes)-1 {
			// This replacement is itself killed mid-bootstrap: point it at a
			// stalled transfer, verify it gates reads while pending, then
			// SIGKILL it with the transfer still hanging. A half-finished
			// bootstrap must leave nothing behind — the next restart pulls a
			// fresh transfer and converges exactly.
			stall := NewProxy(t, s1.Addr)
			stall.Stall(true)
			victim.Start(append(meshArgs(i), "-bootstrap-from", stall.URL())...)
			victim.WaitHealthy()
			res, err := http.Get(victim.URL() + "/v1/query?item=1")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("query during bootstrap: HTTP %d, want 503", res.StatusCode)
			}
			stats, err := victim.Client().Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Bootstrap != "pending" {
				t.Fatalf("bootstrap = %q while the transfer is stalled, want pending", stats.Bootstrap)
			}
			feed(s1, 2)
			victim.Kill()
			stall.Close()
		}

		victim.Start(append(meshArgs(i), "-bootstrap-from", peersOf(i))...)
		victim.WaitHealthy()
		stats := victim.WaitServing(false)
		if stats.Bootstrap != "done" {
			t.Fatalf("%s: bootstrap = %q after replacement, want done", victim.Name, stats.Bootstrap)
		}
		if stats.BootstrapSource == "" {
			t.Fatalf("%s: no bootstrap_source recorded", victim.Name)
		}
		// The replaced node rejoins the ingest rotation immediately.
		feed(s2, 2)
		feed(victim, 3)
	}

	quiesce()
	refStats, err := ref.Client().Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.TotalMass != expected {
		t.Fatalf("reference mass %v, want %v — the harness itself dropped a chunk", refStats.TotalMass, expected)
	}

	// The exactness bar: dense estimates byte-identical to the reference.
	items := make([]uint64, 64)
	for i := range items {
		items[i] = uint64(i * 31 % 2048)
	}
	want := ref.QueryRaw(items)
	for _, n := range nodes {
		if got := n.QueryRaw(items); !bytes.Equal(got, want) {
			t.Fatalf("%s: dense query diverged from the reference\n got: %s\nwant: %s", n.Name, got, want)
		}
	}

	// A graceful stop runs each daemon's own invariant check — after all the
	// kills, resyncs and replace frames above, the empty baseline its peer
	// links share still holds no mass and no counter — and fails on a
	// non-zero exit.
	for _, n := range nodes {
		n.Stop()
	}
}

package server_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// Example_replication shows gossip delta-replication end to end: node A is
// started with node B as a -peers entry, ingests a batch, and the
// replicator ships the snapshot *difference* — a valid sketch in its own
// right, because sketches are linear — to B's /v1/delta on a timer. B folds
// it in with the ordinary exact merge, so its answers equal A's exactly.
func Example_replication() {
	// B listens first (no peers of its own), so A can name its URL.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	nodeB, err := server.New(server.Config{Width: 1024, Depth: 4, K: 16, Seed: 7, NodeID: "b"})
	if err != nil {
		panic(err)
	}
	go http.Serve(lnB, nodeB.Handler())

	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	nodeA, err := server.New(server.Config{
		Width: 1024, Depth: 4, K: 16, Seed: 7, // the mesh must share these
		NodeID:      "a",
		Peers:       []string{"http://" + lnB.Addr().String()},
		GossipEvery: 5 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	go http.Serve(lnA, nodeA.Handler())

	ctx := context.Background()
	clientA := server.NewClient("http://"+lnA.Addr().String(), nil)
	clientB := server.NewClient("http://"+lnB.Addr().String(), nil)

	if err := clientA.UpdateColumns(ctx, []uint64{42, 7}, []float64{1000, 3}); err != nil {
		panic(err)
	}

	// Wait for a gossip tick to carry the delta over (bounded poll).
	deadline := time.Now().Add(10 * time.Second)
	var mass float64
	for time.Now().Before(deadline) {
		stats, err := clientB.Stats(ctx)
		if err != nil {
			panic(err)
		}
		if mass = stats.TotalMass; mass == 1003 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	estimates, err := clientB.Query(ctx, 42)
	if err != nil {
		panic(err)
	}
	fmt.Printf("replicated mass on B: %v\n", mass)
	fmt.Printf("B's estimate for item 42: %v\n", estimates[0])

	nodeA.Close()
	nodeB.Close()
	// Output:
	// replicated mass on B: 1003
	// B's estimate for item 42: 1000
}

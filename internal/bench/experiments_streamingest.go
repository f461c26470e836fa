package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/server"
	"repro/internal/sketch"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// RunE17StreamIngest compares the two ways updates reach a live daemon at
// equal batch shape: one POST /v1/update request per batch (connection
// reuse, but a full HTTP request/response cycle and a lane pick every time)
// versus the persistent-connection stream path (one held-open TCP
// connection, SKB2 batches as SKS1 frames, one producer lane pinned for the
// connection's lifetime, acks piggybacked). Both paths push the identical
// Zipf stream into a fresh daemon over loopback; the exactness column is the
// largest estimate deviation from the single-threaded reference and must
// always read exactly 0 — framing, acking and reconnect bookkeeping change
// how updates travel, never what the counters sum to. The stream path's
// clock includes the final ack drain, so its rate never flatters unapplied
// frames.
func RunE17StreamIngest(cfg Config) []Table {
	universe := uint64(1 << 20)
	length := 2_000_000
	if cfg.Quick {
		universe = 1 << 16
		length = 100_000
	}
	const width, depth, k = 4096, 4, 64

	r := xrand.New(cfg.Seed)
	s := stream.Zipf(r, universe, length, 1.1)
	items := make([]uint64, len(s.Updates))
	deltas := make([]float64, len(s.Updates))
	for i, u := range s.Updates {
		items[i] = u.Item
		deltas[i] = float64(u.Delta)
	}

	single := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed+1), width, depth, k)
	single.UpdateBatch(items, deltas)
	maxErr := func(snapBytes []byte) float64 {
		merged := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed+1), width, depth, k)
		if err := merged.UnmarshalBinary(snapBytes); err != nil {
			panic(fmt.Sprintf("bench: E17 snapshot decode: %v", err))
		}
		var worst float64
		for item := uint64(0); item < universe; item += 101 {
			if d := absFloat(single.Estimate(item) - merged.Estimate(item)); d > worst {
				worst = d
			}
		}
		return worst
	}

	table := Table{
		Title: fmt.Sprintf("E17: streamed vs per-POST ingest over loopback, %d Zipf updates, tracker %dx%d k=%d, GOMAXPROCS=%d",
			length, width, depth, k, runtime.GOMAXPROCS(0)),
		Columns: []string{"path", "batch", "items/sec (M)", "max |err| vs single"},
	}
	rate := func(d float64) string { return fmt.Sprintf("%.2f", float64(length)/d/1e6) }
	ctx := context.Background()

	for _, batch := range []int{256, 4096} {
		// Fresh daemon per row: both paths start from zero counters and an
		// idle engine, so the comparison is purely about the transport.
		run := func(path string, ingest func(client *server.Client, streamAddr string) float64) {
			srv, err := server.New(server.Config{Width: width, Depth: depth, K: k, Seed: cfg.Seed + 1})
			if err != nil {
				panic(fmt.Sprintf("bench: E17 server: %v", err))
			}
			httpLn, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(fmt.Sprintf("bench: E17 listen: %v", err))
			}
			hs := &http.Server{Handler: srv.Handler()}
			go hs.Serve(httpLn)
			streamLn, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(fmt.Sprintf("bench: E17 listen: %v", err))
			}
			go srv.ServeStream(streamLn)

			client := server.NewClient("http://"+httpLn.Addr().String(), &http.Client{Timeout: time.Minute})
			secs := ingest(client, streamLn.Addr().String())
			snap, err := client.Snapshot(ctx)
			if err != nil {
				panic(fmt.Sprintf("bench: E17 snapshot: %v", err))
			}
			table.AddRow(path, fmtInt(batch), rate(secs), fmtFloat(maxErr(snap)))

			hs.Close()
			if err := srv.Close(); err != nil {
				panic(fmt.Sprintf("bench: E17 server close: %v", err))
			}
		}

		run("post", func(client *server.Client, _ string) float64 {
			return timeIt(func() {
				for start := 0; start < len(items); start += batch {
					end := min(start+batch, len(items))
					if err := client.UpdateColumns(ctx, items[start:end], deltas[start:end]); err != nil {
						panic(fmt.Sprintf("bench: E17 post ingest: %v", err))
					}
				}
			}).Seconds()
		})

		run("stream", func(_ *server.Client, streamAddr string) float64 {
			su, err := server.DialStream(streamAddr, server.StreamConfig{BatchSize: batch})
			if err != nil {
				panic(fmt.Sprintf("bench: E17 dial stream: %v", err))
			}
			return timeIt(func() {
				for start := 0; start < len(items); start += batch {
					end := min(start+batch, len(items))
					if err := su.UpdateColumns(items[start:end], deltas[start:end]); err != nil {
						panic(fmt.Sprintf("bench: E17 stream ingest: %v", err))
					}
				}
				// Close syncs: the clock stops only after every frame is
				// acked as applied.
				if err := su.Close(); err != nil {
					panic(fmt.Sprintf("bench: E17 stream close: %v", err))
				}
			}).Seconds()
		})
	}
	return []Table{table}
}

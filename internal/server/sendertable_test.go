package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/sketch"
	"repro/internal/xrand"
)

// TestSenderTableBounded fills a daemon's sender table to maxSenders with
// long ids, half by reset frames and half by frames that land mass (a tracker
// each). Everything that encodes the table still works: a save, /v1/bootstrap,
// Close and a restart from the recovery file. A frame from one more id is
// refused with 507 before anything moves, a known id still lands, and a
// transfer that would overfill an installer's table is refused.
func TestSenderTableBounded(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Width: 64, Depth: 4, K: 4, Seed: 33, SnapshotDir: dir, NodeID: "table-node"}
	ctx := context.Background()
	id := func(i int) string { return fmt.Sprintf("%0250d", i) } // near bootstrapMaxIDLen
	massFrame := func(sender string, from, to uint64, item uint64) DeltaFrame {
		tr := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		tr.Update(item, 1)
		return DeltaFrame{Sender: sender, FromGen: from, ToGen: to, Payload: deltaPayloadFor(t, tr)}
	}

	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	client := NewClient(hs.URL, hs.Client())
	for i := 0; i < maxSenders; i++ {
		frame := DeltaFrame{Sender: id(i), Reset: true, ToGen: 3}
		if i%2 == 1 {
			frame = massFrame(id(i), 0, 1, uint64(i))
		}
		if _, err := client.PushDelta(ctx, frame); err != nil {
			t.Fatalf("filling sender %d: %v", i, err)
		}
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SenderTable != maxSenders || stats.Resident.Senders != maxSenders/2 {
		t.Fatalf("full table: sender_table %d, %d trackers; want %d and %d", stats.SenderTable, stats.Resident.Senders, maxSenders, maxSenders/2)
	}
	if _, err := srv.SaveSnapshot(); err != nil {
		t.Fatalf("saving a full table: %v", err)
	}
	payload, err := client.Bootstrap(ctx, id(0))
	if err != nil {
		t.Fatalf("serving /v1/bootstrap from a full table: %v", err)
	}

	// One more id is refused before it touches a counter or the table.
	before, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.PushDelta(ctx, massFrame("one-too-many", 0, 1, 7))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInsufficientStorage || apiErr.Detail != detailSenderTableFull {
		t.Fatalf("new id at a full table: err %v, want a 507 with detail %q", err, detailSenderTableFull)
	}
	after, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the refused frame moved a counter")
	}
	if stats, err = client.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if stats.SenderTable != maxSenders || stats.DeltasRejected != 1 || stats.Watermarks["one-too-many"] != 0 {
		t.Fatalf("after the refusal: sender_table %d, deltas_rejected %d; want %d and 1", stats.SenderTable, stats.DeltasRejected, maxSenders)
	}

	// A known id still lands, its first mass included.
	if resp, err := client.PushDelta(ctx, massFrame(id(0), 3, 4, 5)); err != nil || !resp.Applied {
		t.Fatalf("known id at a full table: %+v, %v; want applied", resp, err)
	}
	want, err := client.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("closing with a full table: %v", err)
	}
	requireOneRecoveryFile(t, dir)

	// The restart installs the full table from the recovery file.
	srv2, client2 := testDaemon(t, cfg)
	got, err := client2.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the restarted daemon serves different counters")
	}
	if stats, err = client2.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if stats.SenderTable != maxSenders {
		t.Fatalf("restarted sender_table %d, want %d", stats.SenderTable, maxSenders)
	}
	if _, err := client2.PushDelta(ctx, massFrame("one-too-many", 0, 1, 7)); !errors.As(err, &apiErr) || apiErr.Status != http.StatusInsufficientStorage {
		t.Fatalf("new id after the restart: %v, want a 507", err)
	}
	if err := quiescentInvariants(srv2); err != nil {
		t.Fatal(err)
	}

	// The transfer holds the table plus its server's own id. An installer
	// that is one of the table's senders drops its own id and fits; any other
	// would hold maxSenders+1 ids and refuses the transfer whole.
	for _, tc := range []struct {
		nodeID string
		fits   bool
	}{{id(0), true}, {"outsider", false}} {
		fresh, err := New(Config{Width: cfg.Width, Depth: cfg.Depth, K: cfg.K, Seed: cfg.Seed, NodeID: tc.nodeID})
		if err != nil {
			t.Fatal(err)
		}
		err = fresh.installBootstrap(payload)
		switch {
		case tc.fits && err != nil:
			t.Errorf("installing as %.12q: %v", tc.nodeID, err)
		case !tc.fits && (err == nil || !strings.Contains(err.Error(), "sender table")):
			t.Errorf("installing as %.12q: err %v, want a sender-table refusal", tc.nodeID, err)
		}
		fresh.snapMu.Lock()
		n := fresh.senderTableLocked()
		fresh.snapMu.Unlock()
		if want := map[bool]int{true: maxSenders, false: 0}[tc.fits]; n != want {
			t.Errorf("installing as %.12q: sender table %d, want %d", tc.nodeID, n, want)
		}
		closeChecked(t, fresh)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sketch"
	"repro/internal/xrand"
)

// writeRecoveryFile writes p as dir's recovery file.
func writeRecoveryFile(t *testing.T, dir string, p BootstrapPayload) {
	t.Helper()
	data, err := AppendBootstrapResponse(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// readRecoveryFile decodes dir's recovery file.
func readRecoveryFile(t *testing.T, dir string) *BootstrapPayload {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodeBootstrapResponse(data, 0)
	if err != nil {
		t.Fatalf("the recovery file is not an SKP1 frame: %v", err)
	}
	return p
}

// rewriteRecoveryFile decodes dir's recovery file, lets edit change it, and
// writes it back.
func rewriteRecoveryFile(t *testing.T, dir string, edit func(*BootstrapPayload)) {
	t.Helper()
	p := readRecoveryFile(t, dir)
	edit(p)
	writeRecoveryFile(t, dir, *p)
}

// requireOneRecoveryFile fails unless dir holds the recovery file and nothing
// else, and the file decodes.
func requireOneRecoveryFile(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != SnapshotFileName {
		t.Fatalf("snapshot directory holds %v, want only %s", names, SnapshotFileName)
	}
	readRecoveryFile(t, dir)
}

// stateOf cuts srv's state as transferLocked does: for a peer, or as its
// recovery file.
func stateOf(t *testing.T, srv *Server, peer bool) BootstrapPayload {
	t.Helper()
	srv.snapMu.Lock()
	defer srv.snapMu.Unlock()
	p, err := srv.transferLocked(peer)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requireState fails unless got and want encode to the same SKP1 bytes once
// the cutting node's id and generation, which say who cut the state and not
// what it is, are set to want's.
func requireState(t *testing.T, got, want BootstrapPayload, what string) {
	t.Helper()
	got.NodeID, got.LocalGen = want.NodeID, want.LocalGen
	g, err := AppendBootstrapResponse(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := AppendBootstrapResponse(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: the node holds marks %v, hearsay %v, untracked %v, %d trackers; want marks %v, hearsay %v, untracked %v, %d trackers (or the counters differ)",
			what, got.Watermarks, got.Hearsay, got.Untracked, len(got.Senders), want.Watermarks, want.Hearsay, want.Untracked, len(want.Senders))
	}
}

// fileSection is one section of an SKP1 frame: bytes [start, end).
type fileSection struct {
	name       string
	start, end int
}

// recoveryFileSections splits a well-formed SKP1 frame at its section
// boundaries (the layout in bootstrap.go).
func recoveryFileSections(t *testing.T, data []byte) []fileSection {
	t.Helper()
	var out []fileSection
	at := 0
	add := func(name string, n int) {
		out = append(out, fileSection{name, at, at + n})
		at += n
	}
	u16 := func(off int) int { return int(binary.BigEndian.Uint16(data[at+off:])) }
	u32 := func(off int) int { return int(binary.BigEndian.Uint32(data[at+off:])) }
	add("header", 6)
	add("id", 2+u16(0))
	add("localGen", 8)
	add("marks", 4+u32(0))
	hearsay := 2
	for i := 0; i < u16(0); i++ {
		hearsay += 2 + u16(hearsay)
	}
	add("hearsay", hearsay)
	add("snapshot", 4+u32(0))
	n := u16(0)
	add("tracker count", 2)
	for i := 0; i < n; i++ {
		idLen := u16(0)
		add("tracker "+string(data[at+2:at+2+idLen]), 2+idLen+4+u32(2+idLen))
	}
	add("crc", 4)
	if at != len(data) {
		t.Fatalf("sections cover %d of %d bytes", at, len(data))
	}
	return out
}

// TestRecoveryFileTornOrCorrupt: the recovery file is all or nothing. A good
// file recovers bit for bit. A file truncated at any section boundary, or
// with one byte flipped inside any section, fails New with the file's path
// in the error — or, with a bootstrap source configured, leaves the node
// holding exactly the source's state, never a mix of the two. Temp files an
// interrupted save leaves behind are never read.
func TestRecoveryFileTornOrCorrupt(t *testing.T) {
	cfg := Config{Width: 256, Depth: 4, K: 16, Seed: 71, NodeID: "node-t"}
	ctx := context.Background()
	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}

	// The source a bootstrap falls back to: mass of its own and a sender's.
	srcCfg := cfg
	srcCfg.NodeID = "source"
	source, sourceClient := testDaemon(t, srcCfg)
	if err := sourceClient.Update(ctx, []engine.Update{{Item: 1, Delta: 10}}); err != nil {
		t.Fatal(err)
	}
	if resp, err := sourceClient.PushDelta(ctx, DeltaFrame{Sender: "s1", FromGen: 0, ToGen: 2, Payload: deltaPayloadFor(t, mkSketch(2, 20))}); err != nil || !resp.Applied {
		t.Fatalf("source's window: %+v, %v", resp, err)
	}
	sourceState := stateOf(t, source, true)

	// The good file has every section: local mass, a tracked sender (a), one
	// reset to 0 (c: an empty tracker section), and a hearsay mark with its
	// tracker (b, from a transfer).
	goodDir := t.TempDir()
	goodCfg := cfg
	goodCfg.SnapshotDir = goodDir
	prev, prevClient := testDaemon(t, goodCfg)
	if err := prevClient.Update(ctx, []engine.Update{{Item: 100, Delta: 5}}); err != nil {
		t.Fatal(err)
	}
	if resp, err := prevClient.PushDelta(ctx, DeltaFrame{Sender: "a", FromGen: 0, ToGen: 4, Payload: deltaPayloadFor(t, mkSketch(101, 7))}); err != nil || !resp.Applied {
		t.Fatalf("a's window: %+v, %v", resp, err)
	}
	if _, err := prevClient.PushDelta(ctx, DeltaFrame{Sender: "c", Reset: true}); err != nil {
		t.Fatal(err)
	}
	if err := prev.installBootstrap(&BootstrapPayload{
		NodeID: "peer", Watermarks: map[string]uint64{"b": 6}, Hearsay: []string{"b"},
		Snapshot: mustEncode(t, mkSketch(102, 9)), Senders: map[string][]byte{"b": mustEncode(t, mkSketch(102, 9))},
	}); err != nil {
		t.Fatal(err)
	}
	closeChecked(t, prev)
	requireOneRecoveryFile(t, goodDir)
	good, err := os.ReadFile(filepath.Join(goodDir, SnapshotFileName))
	if err != nil {
		t.Fatal(err)
	}
	goodState := readRecoveryFile(t, goodDir)
	if len(goodState.Hearsay) != 1 || len(goodState.Senders["c"]) != 0 || len(goodState.Senders) != 3 {
		t.Fatalf("the good file lacks a section: hearsay %v, %d trackers", goodState.Hearsay, len(goodState.Senders))
	}

	// start writes files into a fresh snapshot directory and starts a daemon
	// on it, with or without the bootstrap source.
	start := func(t *testing.T, files map[string][]byte, withSource bool) (*Server, error) {
		nodeCfg := cfg
		nodeCfg.SnapshotDir = t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(nodeCfg.SnapshotDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if withSource {
			nodeCfg.BootstrapFrom = []string{sourceClient.base}
		}
		srv, err := New(nodeCfg)
		if err != nil {
			return nil, err
		}
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { hs.Close(); closeChecked(t, srv) })
		if srv.bootstrapping.Load() {
			waitForServing(t, NewClient(hs.URL, hs.Client()))
		}
		return srv, nil
	}
	// recovered requires the good file's state, bit for bit.
	recovered := func(t *testing.T, srv *Server) {
		t.Helper()
		requireState(t, stateOf(t, srv, false), *goodState, "recovered")
	}
	// bootstrapped requires exactly the source's state.
	bootstrapped := func(t *testing.T, srv *Server) {
		t.Helper()
		requireState(t, stateOf(t, srv, false), sourceState, "bootstrapped")
	}

	t.Run("good file", func(t *testing.T) {
		for _, withSource := range []bool{false, true} {
			srv, err := start(t, map[string][]byte{SnapshotFileName: good}, withSource)
			if err != nil {
				t.Fatal(err)
			}
			recovered(t, srv)
		}
	})
	t.Run("temp file beside a good file", func(t *testing.T) {
		srv, err := start(t, map[string][]byte{SnapshotFileName: good, SnapshotFileName + ".tmp123": good[:len(good)/2]}, false)
		if err != nil {
			t.Fatal(err)
		}
		recovered(t, srv)
	})
	t.Run("temp file alone", func(t *testing.T) {
		srv, err := start(t, map[string][]byte{SnapshotFileName + ".tmp123": good}, false)
		if err != nil {
			t.Fatal(err)
		}
		requireState(t, stateOf(t, srv, false), stateOf(t, newEmptyServer(t, cfg), false), "fresh start")
		srv, err = start(t, map[string][]byte{SnapshotFileName + ".tmp123": good}, true)
		if err != nil {
			t.Fatal(err)
		}
		bootstrapped(t, srv)
	})

	for _, sec := range recoveryFileSections(t, good) {
		flipped := bytes.Clone(good)
		flipped[(sec.start+sec.end)/2] ^= 0x20
		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"truncated at " + sec.name, good[:sec.start]},
			{"flipped in " + sec.name, flipped},
		} {
			for _, withSource := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/source=%v", tc.name, withSource), func(t *testing.T) {
					srv, err := start(t, map[string][]byte{SnapshotFileName: tc.data}, withSource)
					switch {
					case withSource && err != nil:
						t.Fatalf("New with a bootstrap source: %v", err)
					case withSource:
						bootstrapped(t, srv)
						aside, err := os.ReadFile(filepath.Join(srv.cfg.SnapshotDir, SnapshotFileName+unreadableSuffix))
						if err != nil || !bytes.Equal(aside, tc.data) {
							t.Fatalf("the damaged file was not moved aside intact: %v", err)
						}
					case err == nil:
						t.Fatal("New recovered from a damaged file")
					case !strings.Contains(err.Error(), SnapshotFileName):
						t.Fatalf("New's error does not name the file: %v", err)
					}
				})
			}
		}
	}
}

// TestUnreadableFileSurvivesBootstrap: a recovery file that does not install
// is moved aside before the node bootstraps, and nothing the node saves later
// replaces it. While the bootstrap is pending the node saves nothing — not on
// its SnapshotEvery ticks, not on Close — so the next start bootstraps again
// instead of recovering an empty file. A node that degrades saves the state
// it then serves, and the file it could not read still survives.
func TestUnreadableFileSurvivesBootstrap(t *testing.T) {
	cfg := Config{Width: 256, Depth: 4, K: 16, Seed: 89, NodeID: "node-u", SnapshotEvery: 5 * time.Millisecond, BootstrapRetryWait: 5 * time.Millisecond}
	damaged := []byte("SKC1: a recovery file from an older release")
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close() // connections to it are refused
	srcCfg := Config{Width: cfg.Width, Depth: cfg.Depth, K: cfg.K, Seed: cfg.Seed, NodeID: "source"}
	_, sourceClient := testDaemon(t, srcCfg)
	if err := sourceClient.Update(context.Background(), []engine.Update{{Item: 1, Delta: 10}}); err != nil {
		t.Fatal(err)
	}
	// requireAside fails unless dir's damaged file sits aside, byte for byte.
	requireAside := func(t *testing.T, dir string) {
		t.Helper()
		aside, err := os.ReadFile(filepath.Join(dir, SnapshotFileName+unreadableSuffix))
		if err != nil || !bytes.Equal(aside, damaged) {
			t.Fatalf("the damaged file did not survive aside: %q, %v", aside, err)
		}
	}
	newNode := func(t *testing.T, dir string, attempts int, sources ...string) (*Server, *Client) {
		nodeCfg := cfg
		nodeCfg.SnapshotDir = dir
		nodeCfg.BootstrapFrom = sources
		nodeCfg.BootstrapAttempts = attempts
		return testDaemon(t, nodeCfg)
	}

	t.Run("pending, then bootstrapped", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, _ := newNode(t, dir, 1000, gone.URL)
		time.Sleep(50 * time.Millisecond) // ten snapshot ticks
		if !srv.bootstrapping.Load() {
			t.Fatal("the bootstrap is not pending")
		}
		closeChecked(t, srv)
		if _, err := os.Stat(filepath.Join(dir, SnapshotFileName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("a node with a pending bootstrap saved a recovery file: %v", err)
		}
		requireAside(t, dir)

		_, client := newNode(t, dir, 3, sourceClient.base)
		if stats := waitForServing(t, client); stats.TotalMass != 10 {
			t.Fatalf("the next start holds mass %v, want the source's 10", stats.TotalMass)
		}
		requireAside(t, dir)
	})

	t.Run("degraded", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, SnapshotFileName), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, client := newNode(t, dir, 1, gone.URL)
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if stats, err := client.Stats(context.Background()); err == nil && stats.Bootstrap == "degraded" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the node never degraded")
			}
		}
		if err := client.Update(context.Background(), []engine.Update{{Item: 2, Delta: 3}}); err != nil {
			t.Fatal(err)
		}
		closeChecked(t, srv)
		if p := readRecoveryFile(t, dir); len(p.Snapshot) == 0 {
			t.Fatal("the degraded node saved no state")
		}
		requireAside(t, dir)
	})
}

// TestLongIDsNeverReachTheRecoveryFile: every id a node keeps must fit an
// SKP1 id section, or no save could be written from then on. A delta frame
// whose sender id is longer is refused with 400 before it touches state, so
// the saves and Close keep succeeding; New refuses such a NodeID; and the
// encoder refuses a watermark section the decoder would.
func TestLongIDsNeverReachTheRecoveryFile(t *testing.T) {
	cfg := Config{Width: 256, Depth: 4, K: 16, Seed: 91, NodeID: "node-l", SnapshotDir: t.TempDir()}
	ctx := context.Background()
	srv, client := testDaemon(t, cfg)
	long := strings.Repeat("x", bootstrapMaxIDLen+1)
	_, err := client.PushDelta(ctx, DeltaFrame{Sender: long, Reset: true})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("reset frame from a %d-byte sender id: %v, want 400", len(long), err)
	}
	// The longest id that fits is kept, and saved.
	if _, err := client.PushDelta(ctx, DeltaFrame{Sender: long[1:], Reset: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.SaveSnapshot(); err != nil {
		t.Fatalf("save after the refused frame: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close after the refused frame: %v", err)
	}
	if p := readRecoveryFile(t, cfg.SnapshotDir); len(p.Watermarks) != 1 || p.Watermarks[long[1:]] != 0 {
		t.Fatalf("the recovery file holds marks for %d senders, want exactly the %d-byte one", len(p.Watermarks), len(long)-1)
	}

	cfg.NodeID = long
	if srv, err := New(cfg); err == nil {
		srv.Close()
		t.Fatalf("New accepted a %d-byte NodeID", len(long))
	}

	marks := make(map[string]uint64)
	for i := 0; i < bootstrapMaxMarksLen/16; i++ {
		marks[fmt.Sprintf("sender-%08d", i)] = uint64(i)
	}
	if _, err := AppendBootstrapResponse(nil, BootstrapPayload{NodeID: "x", Watermarks: marks}); err == nil {
		t.Fatal("encoded a watermark section over the cap")
	}
}

// newEmptyServer returns a daemon that has started fresh, for comparison.
func newEmptyServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.SnapshotDir = ""
	srv, _ := testDaemon(t, cfg)
	return srv
}

// TestHearsayAndUntrackedSurviveRestart: the recovery file keeps exactly
// which marks are hearsay and whether the node is untracked. A mark a direct
// frame confirmed before Close accepts a reset-to-0 after the restart; a mark
// still hearsay refuses one with the replace offer. A node bootstrapped from
// an untracked source refuses a replace from a sender it holds no tracker
// for, before its own restart and after it.
func TestHearsayAndUntrackedSurviveRestart(t *testing.T) {
	cfg := Config{Width: 256, Depth: 4, K: 16, Seed: 83}
	ctx := context.Background()
	mkSketch := func(pairs ...float64) *sketch.HeavyHitterTracker {
		sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
		for i := 0; i+1 < len(pairs); i += 2 {
			sk.Update(uint64(pairs[i]), pairs[i+1])
		}
		return sk
	}

	t.Run("hearsay", func(t *testing.T) {
		nodeCfg := cfg
		nodeCfg.NodeID = "r"
		nodeCfg.SnapshotDir = t.TempDir()
		srv, client := testDaemon(t, nodeCfg)
		if err := srv.installBootstrap(&BootstrapPayload{
			NodeID:     "source",
			Watermarks: map[string]uint64{"b": 6, "d": 4},
			Hearsay:    []string{"b", "d"},
			Snapshot:   mustEncode(t, mkSketch(1, 80, 2, 30)),
			Senders:    map[string][]byte{"b": mustEncode(t, mkSketch(1, 80)), "d": mustEncode(t, mkSketch(2, 30))},
		}); err != nil {
			t.Fatal(err)
		}
		// d's next window confirms its mark; b's stays hearsay.
		if resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "d", FromGen: 4, ToGen: 5, Payload: deltaPayloadFor(t, mkSketch(3, 1))}); err != nil || !resp.Applied {
			t.Fatalf("d's window: %+v, %v", resp, err)
		}
		closeChecked(t, srv)

		_, client = testDaemon(t, nodeCfg)
		resp, err := client.PushDelta(ctx, DeltaFrame{Sender: "d", Reset: true})
		if err != nil || resp.Watermark != 0 {
			t.Fatalf("reset-to-0 on a mark confirmed before the restart: %+v, %v; want accepted at 0", resp, err)
		}
		_, err = client.PushDelta(ctx, DeltaFrame{Sender: "b", Reset: true})
		if !conflictAllowsReplace(err) {
			t.Fatalf("reset-to-0 on a mark still hearsay: %v, want 409 with the replace offer", err)
		}
	})

	t.Run("untracked", func(t *testing.T) {
		// The source recovered a file that says it holds mass no tracker
		// accounts for; it has no marks, so only the flag says so.
		srcCfg := cfg
		srcCfg.NodeID = "source"
		srcCfg.SnapshotDir = t.TempDir()
		writeRecoveryFile(t, srcCfg.SnapshotDir, BootstrapPayload{NodeID: "source", Untracked: true, Snapshot: mustEncode(t, mkSketch(5, 50))})
		_, srcClient := testDaemon(t, srcCfg)

		joinCfg := cfg
		joinCfg.NodeID = "joiner"
		joinCfg.SnapshotDir = t.TempDir()
		joinCfg.BootstrapFrom = []string{srcClient.base}
		joiner, client := testDaemon(t, joinCfg)
		waitForServing(t, client)
		refuses := func(client *Client, when string) {
			t.Helper()
			_, err := client.PushDelta(ctx, DeltaFrame{Sender: "z", ToGen: 3, Replace: true, Payload: deltaPayloadFor(t, mkSketch(5, 50))})
			if !isWatermarkConflict(err) || conflictAllowsReplace(err) {
				t.Fatalf("replace from an untracked sender %s: %v, want a 409 refusal without the offer", when, err)
			}
		}
		refuses(client, "after the bootstrap")
		closeChecked(t, joiner)
		joinCfg.BootstrapFrom = nil
		_, client = testDaemon(t, joinCfg)
		refuses(client, "after the restart")
	})
}

// goldenBootstrapPayload is the payload testdata/bootstrap.golden freezes:
// every section of SKP1 version 2, the untracked bit, a hearsay mark and an
// empty tracker section included.
func goldenBootstrapPayload() BootstrapPayload {
	return BootstrapPayload{
		NodeID:     "node-a",
		LocalGen:   42,
		Watermarks: map[string]uint64{"node-a": 42, "node-b": 7, "node-c": 0},
		Hearsay:    []string{"node-b"},
		Untracked:  true,
		Snapshot:   []byte("snapshot-bytes-stand-in"),
		Senders: map[string][]byte{
			"node-a": []byte("tracker-a"),
			"node-b": []byte("tracker-b"),
			"node-c": {},
		},
	}
}

// TestBootstrapGolden freezes the SKP1 layout: the committed frame is the
// golden payload's encoding byte for byte, carries version 2 and the
// untracked bit, and decodes back to the payload.
func TestBootstrapGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "bootstrap.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := AppendBootstrapResponse(nil, goldenBootstrapPayload())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding (%d bytes) differs from testdata/bootstrap.golden (%d bytes)", len(got), len(want))
	}
	if want[4] != 2 || want[5] != bootstrapFlagUntracked {
		t.Fatalf("golden version %d, flags %#x; want 2 and the untracked bit", want[4], want[5])
	}
	dec, err := DecodeBootstrapResponse(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	requireState(t, *dec, goldenBootstrapPayload(), "decoded golden")
}

// BenchmarkSaveSnapshot times one SaveSnapshot — cut, encode, write, fsync,
// rename and directory fsync — of a node holding local mass, two senders'
// trackers and a merge, at the daemon's default shape and the benchmark's.
// It reports the bytes written per save as file_B.
func BenchmarkSaveSnapshot(b *testing.B) {
	for _, shape := range []struct{ w, d int }{{4096, 4}, {65536, 4}} {
		b.Run(fmt.Sprintf("%dx%d", shape.w, shape.d), func(b *testing.B) {
			ctx := context.Background()
			dir := b.TempDir()
			cfg := Config{Width: shape.w, Depth: shape.d, K: 64, Seed: 97, SnapshotDir: dir}
			srv, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			hs := httptest.NewServer(srv.Handler())
			defer func() { hs.Close(); srv.Close() }()
			client := NewClient(hs.URL, hs.Client())
			r := xrand.New(3)
			updates := make([]engine.Update, 4096)
			for i := range updates {
				updates[i] = engine.Update{Item: uint64(r.Intn(1 << 20)), Delta: 1}
			}
			if err := client.Update(ctx, updates); err != nil {
				b.Fatal(err)
			}
			foreign := func() []byte {
				sk := sketch.NewHeavyHitterTracker(xrand.New(cfg.Seed), cfg.Width, cfg.Depth, cfg.K)
				for i := 0; i < 4096; i++ {
					sk.Update(uint64(r.Intn(1<<20)), 1)
				}
				enc, err := sk.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				return enc
			}
			for _, sender := range []string{"s1", "s2"} {
				if _, err := client.PushDelta(ctx, DeltaFrame{Sender: sender, FromGen: 0, ToGen: 1, Payload: sketch.EncodeDelta(foreign())}); err != nil {
					b.Fatal(err)
				}
			}
			if err := client.Merge(ctx, foreign()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.SaveSnapshot(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			entries, err := os.ReadDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			var size int64
			for _, e := range entries {
				info, err := e.Info()
				if err != nil {
					b.Fatal(err)
				}
				size += info.Size()
			}
			b.ReportMetric(float64(size), "file_B")
		})
	}
}

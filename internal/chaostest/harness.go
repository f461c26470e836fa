package chaostest

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// sketchdBinary builds cmd/sketchd once per test process (the go build
// cache makes repeat calls cheap) and returns the binary path. Tests that
// cannot build — no go tool on PATH — are skipped, not failed.
func sketchdBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "sketchd-chaos-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "sketchd")
		cmd := exec.Command("go", "build", "-o", buildBin, "repro/cmd/sketchd")
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build sketchd: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build sketchd binary: %v", buildErr)
	}
	return buildBin
}

// repoRoot walks up from the working directory to the go.mod so `go build`
// resolves the module no matter which package directory the test runs from.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "."
		}
		dir = parent
	}
}

// Node is one sketchd process under harness control. Its listen address is
// reserved before the first start and survives kill/restart cycles, so peer
// lists built from it stay valid across the node's whole chaotic life.
type Node struct {
	t       *testing.T
	Name    string
	Addr    string // host:port, stable across restarts
	DataDir string // -snapshot-dir, survives Kill, cleared by Wipe
	logPath string

	cmd     *exec.Cmd
	logFile *os.File
}

// NewNode reserves a loopback port and a data directory for a daemon named
// name. The process itself is not started until Start.
func NewNode(t *testing.T, name string) *Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	n := &Node{
		t:       t,
		Name:    name,
		Addr:    addr,
		DataDir: filepath.Join(t.TempDir(), name),
		logPath: filepath.Join(t.TempDir(), name+".log"),
	}
	if err := os.MkdirAll(n.DataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Kill()
		if t.Failed() {
			if log, err := os.ReadFile(n.logPath); err == nil && len(log) > 0 {
				t.Logf("--- %s log ---\n%s", n.Name, log)
			}
		}
	})
	return n
}

// URL is the node's http:// base URL.
func (n *Node) URL() string { return "http://" + n.Addr }

// Client returns an API client aimed at the node.
func (n *Node) Client() *server.Client { return server.NewClient(n.URL(), nil) }

// Start launches the daemon on the node's reserved address with its data
// directory plus any extra flags (peer lists, bootstrap sources, gossip
// cadence). Each restart may pass a different flag set — exactly how an
// operator replaces a node.
func (n *Node) Start(extra ...string) {
	n.t.Helper()
	if n.cmd != nil {
		n.t.Fatalf("%s: Start while already running", n.Name)
	}
	args := append([]string{
		"-addr", n.Addr,
		"-node-id", n.Name,
		"-snapshot-dir", n.DataDir,
	}, extra...)
	cmd := exec.Command(sketchdBinary(n.t), args...)
	log, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		n.t.Fatal(err)
	}
	fmt.Fprintf(log, "--- start %v ---\n", args)
	cmd.Stdout = log
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		log.Close()
		n.t.Fatalf("%s: %v", n.Name, err)
	}
	n.cmd = cmd
	n.logFile = log
}

// Kill SIGKILLs the process — no shutdown snapshot, no final gossip push,
// sockets cut mid-whatever. No-op if the node is not running.
func (n *Node) Kill() {
	if n.cmd == nil {
		return
	}
	n.cmd.Process.Kill()
	n.reap(30 * time.Second)
}

// Stop sends SIGTERM and waits for the daemon's graceful shutdown (final
// delta push, shutdown snapshot, invariant check), which must end in a clean
// exit: sketchd exits non-zero when Server.Close reports an error.
func (n *Node) Stop() {
	n.t.Helper()
	if n.cmd == nil {
		return
	}
	cmd := n.cmd
	cmd.Process.Signal(syscall.SIGTERM)
	if !n.reap(15 * time.Second) {
		n.t.Fatalf("%s: did not exit after SIGTERM", n.Name)
	}
	if code := cmd.ProcessState.ExitCode(); code != 0 {
		n.t.Fatalf("%s: exited with status %d after SIGTERM (log: %s)", n.Name, code, n.logPath)
	}
}

// reap waits for the process to exit (with a hard-kill escalation at the
// deadline), then releases the node for the next Start. Reports whether the
// process exited on its own within the deadline.
func (n *Node) reap(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		n.cmd.Wait()
		close(done)
	}()
	graceful := true
	select {
	case <-done:
	case <-time.After(timeout):
		graceful = false
		n.cmd.Process.Kill()
		<-done
	}
	n.logFile.Close()
	n.cmd = nil
	n.logFile = nil
	return graceful
}

// Wipe empties the node's data directory — the disk-died half of a node
// replacement. The node must not be running.
func (n *Node) Wipe() {
	n.t.Helper()
	if n.cmd != nil {
		n.t.Fatalf("%s: Wipe while running", n.Name)
	}
	if err := os.RemoveAll(n.DataDir); err != nil {
		n.t.Fatal(err)
	}
	if err := os.MkdirAll(n.DataDir, 0o755); err != nil {
		n.t.Fatal(err)
	}
}

// WaitHealthy polls /v1/healthz until it answers 200 — the process is up
// and its listener attached (bootstrap may still be pending).
func (n *Node) WaitHealthy() {
	n.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := http.Get(n.URL() + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, res.Body)
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			n.t.Fatalf("%s: never became healthy (%v)", n.Name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// WaitServing polls /v1/stats until the node is past any bootstrap
// ("done", "degraded", or never bootstrapping at all) and returns the
// stats it saw. Fails the test if the node degrades and allowDegraded is
// false.
func (n *Node) WaitServing(allowDegraded bool) server.Stats {
	n.t.Helper()
	client := n.Client()
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for {
		stats, err := client.Stats(ctx)
		if err == nil && stats.Bootstrap != "pending" {
			if stats.Bootstrap == "degraded" && !allowDegraded {
				n.t.Fatalf("%s: bootstrap degraded", n.Name)
			}
			return stats
		}
		if time.Now().After(deadline) {
			n.t.Fatalf("%s: still not serving (stats err %v)", n.Name, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// WaitMass polls the node until its total mass equals want exactly.
// Overshoot fails immediately: replicated mass is linear, so any excess is
// a double-counted delta, and waiting longer would only hide it.
func (n *Node) WaitMass(want float64) {
	n.t.Helper()
	client := n.Client()
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for {
		stats, err := client.Stats(ctx)
		if err == nil {
			if stats.TotalMass == want {
				return
			}
			if stats.TotalMass > want {
				n.t.Fatalf("%s: mass %v overshot %v — a delta was double-counted", n.Name, stats.TotalMass, want)
			}
		}
		if time.Now().After(deadline) {
			n.t.Fatalf("%s: mass never reached %v (err %v)", n.Name, want, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// QueryRaw fetches the /v1/query response for items and returns the raw
// bytes of its "estimates" field — unparsed, so converged nodes can be
// compared for byte-identical answers (the exactness bar: same JSON, not
// just close numbers). The surrounding envelope is stripped because it
// carries the node-local write generation, which legitimately differs.
func (n *Node) QueryRaw(items []uint64) []byte {
	n.t.Helper()
	url := n.URL() + "/v1/query?"
	for i, item := range items {
		if i > 0 {
			url += "&"
		}
		url += fmt.Sprintf("item=%d", item)
	}
	res, err := http.Get(url)
	if err != nil {
		n.t.Fatalf("%s: %v", n.Name, err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		n.t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		n.t.Fatalf("%s: query HTTP %d: %s", n.Name, res.StatusCode, body)
	}
	var envelope struct {
		Estimates json.RawMessage `json:"estimates"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		n.t.Fatalf("%s: query body: %v", n.Name, err)
	}
	return envelope.Estimates
}

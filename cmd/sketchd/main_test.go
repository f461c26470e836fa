package main

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server"
)

// TestProfilesOnlyOnTheDebugListener: the data handler answers 404 on the
// profile paths, and the debug listener serves them.
func TestProfilesOnlyOnTheDebugListener(t *testing.T) {
	srv, err := server.New(server.Config{Width: 64, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	data := httptest.NewServer(srv.Handler())
	defer data.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		resp, err := http.Get(data.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("data port: GET %s answered %d, want 404", path, resp.StatusCode)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go serveDebug(ln)
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("debug listener: GET /debug/pprof/heap answered %d with %d bytes, want a profile", resp.StatusCode, len(body))
	}
}

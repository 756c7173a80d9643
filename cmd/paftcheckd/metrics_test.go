package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"parallaft/internal/checkd"
	"parallaft/internal/packet"
)

// lockedBuffer lets the test read serve's stderr while serve is still
// writing to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestMetricsEndpoint is the observability acceptance test: a daemon
// started with -metrics-addr serves Prometheus text over HTTP, and after a
// full verify session the queue-depth, worker-utilization and
// verdict-latency series are present with the daemon drained back to idle.
func TestMetricsEndpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pkts")
	exportRun(t, dir)

	sock := filepath.Join(t.TempDir(), "checkd.sock")
	var stderr lockedBuffer
	prev := shutdownHook
	shutdownHook = make(chan struct{})
	defer func() { shutdownHook = prev }()

	served := make(chan int, 1)
	go func() {
		served <- run([]string{"-listen", sock, "-metrics-addr", "127.0.0.1:0", "-workers", "2"}, io.Discard, &stderr)
	}()

	// The daemon prints the resolved metrics address once both listeners
	// are up.
	addrRe := regexp.MustCompile(`metrics on http://([^/\s]+)/metrics`)
	var addr string
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if m := addrRe.FindStringSubmatch(stderr.String()); m != nil &&
			strings.Contains(stderr.String(), "listening on") {
			addr = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatalf("daemon never announced its metrics address; stderr:\n%s", stderr.String())
	}

	// Drive a real session so the executor metrics move.
	store, pkts, err := packet.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	verdicts, err := checkd.CheckOver(conn, store, pkts)
	conn.Close()
	if err != nil {
		t.Fatalf("CheckOver: %v", err)
	}
	if len(verdicts) != len(pkts) {
		t.Fatalf("verdicts = %d, packets = %d", len(verdicts), len(pkts))
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want Prometheus text", ct)
	}
	text := string(body)

	for _, want := range []string{
		"# HELP paft_checkd_queue_depth",
		"# TYPE paft_checkd_queue_depth gauge",
		"# TYPE paft_checkd_busy_workers gauge",
		"# TYPE paft_checkd_verdict_latency_seconds histogram",
		"paft_checkd_verdict_latency_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
	// The session is over: queue and busy workers are back to zero, and
	// every packet's latency was observed.
	for _, wantLine := range []string{
		"paft_checkd_queue_depth 0",
		"paft_checkd_busy_workers 0",
		fmt.Sprintf("paft_checkd_verdicts_ok_total %d", len(pkts)),
		fmt.Sprintf("paft_checkd_verdict_latency_seconds_count %d", len(pkts)),
	} {
		if !strings.Contains(text, wantLine) {
			t.Errorf("/metrics missing line %q\n%s", wantLine, text)
		}
	}

	close(shutdownHook)
	if code := <-served; code != 0 {
		t.Fatalf("serve exited %d; stderr:\n%s", code, stderr.String())
	}
}

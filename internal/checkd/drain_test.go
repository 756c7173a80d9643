package checkd

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"parallaft/internal/telemetry"
)

// heartbeat writes one ping on conn and reads back its echo.
func heartbeat(conn net.Conn) error {
	if err := WriteFrame(conn, FrameHeartbeat, []byte("hi")); err != nil {
		return err
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		return err
	}
	if typ != FrameHeartbeat || string(payload) != "hi" {
		return fmt.Errorf("heartbeat answered with %q %q", typ, payload)
	}
	return nil
}

// TestConcurrentSubmittersGracefulDrain is the transport's race-mode
// lifecycle test: several client sessions stream packets concurrently
// while the server is asked to drain. Shutdown must stop *accepting*
// without cutting in-flight sessions, so every submitted packet gets
// exactly one verdict, in submission order, and once everything is
// drained the queue-depth and utilization gauges read zero.
//
// Run under -race this also exercises the executor's atomic/mutex
// interplay (Submit vs workers vs reorder) across many executors sharing
// one telemetry registry.
func TestConcurrentSubmittersGracefulDrain(t *testing.T) {
	_, store, pkts := runExported(t, smallSliceConfig(), victimProgram(240_000))
	if len(pkts) < 2 {
		t.Fatalf("want several packets, got %d", len(pkts))
	}
	want, err := CheckAll(store, pkts, Options{})
	if err != nil {
		t.Fatalf("CheckAll: %v", err)
	}

	reg := telemetry.NewRegistry()
	sock := t.TempDir() + "/checkd.sock"
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Options{Workers: 2, Metrics: reg})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	const sessions = 8
	var wg, ready sync.WaitGroup
	errs := make([]error, sessions)
	verdicts := make([][]Verdict, sessions)
	start := make(chan struct{})
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("unix", sock)
			if err == nil {
				defer conn.Close()
				// A heartbeat round trip proves the server accepted this
				// connection: a dialed-but-unaccepted conn would be
				// legitimately dropped by the drain.
				err = heartbeat(conn)
			}
			ready.Done()
			if err != nil {
				errs[i] = err
				return
			}
			<-start // maximise overlap between sessions and the drain
			verdicts[i], errs[i] = CheckOver(conn, store, pkts)
		}(i)
	}

	// Every session holds an accepted connection; draining now must let
	// all of them finish.
	ready.Wait()
	close(start)
	srv.Shutdown()
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if len(verdicts[i]) != len(pkts) {
			t.Fatalf("session %d: %d verdicts for %d packets (lost or duplicated)",
				i, len(verdicts[i]), len(pkts))
		}
		for seq, v := range verdicts[i] {
			if v.Seq != seq {
				t.Fatalf("session %d: verdict %d carries seq %d (ordering broken)", i, seq, v.Seq)
			}
			if v.OK != want[seq].OK || v.Infra != want[seq].Infra {
				t.Fatalf("session %d verdict %d = %+v, want %+v", i, seq, v, want[seq])
			}
		}
	}

	// Drained: nothing queued, nobody busy, all workers gone.
	snap := reg.Snapshot()
	value := func(name string) float64 {
		for _, m := range snap {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %q not registered", name)
		return 0
	}
	for _, g := range []string{"paft_checkd_queue_depth", "paft_checkd_busy_workers", "paft_checkd_workers"} {
		if v := value(g); v != 0 {
			t.Errorf("%s = %v after drain, want 0", g, v)
		}
	}
	if got := value("paft_checkd_packets_submitted_total"); got != float64(sessions*len(pkts)) {
		t.Errorf("submitted = %v, want %d", got, sessions*len(pkts))
	}
	wantOK := 0
	for _, v := range want {
		if v.OK && v.Infra == "" {
			wantOK++
		}
	}
	if got := value("paft_checkd_verdicts_ok_total"); got != float64(sessions*wantOK) {
		t.Errorf("verdicts ok = %v, want %d", got, sessions*wantOK)
	}
	latencyCount := uint64(0)
	for _, m := range snap {
		if m.Name == "paft_checkd_verdict_latency_seconds" {
			latencyCount = m.Count
		}
	}
	if latencyCount != uint64(sessions*len(pkts)) {
		t.Errorf("latency observations = %d, want %d", latencyCount, sessions*len(pkts))
	}

	// The per-connection pagestores report into the same registry; the
	// intake counters must have moved.
	if got := value("paft_pagestore_puts_total"); got == 0 {
		t.Error("pagestore puts counter never moved")
	}
}

package campaign

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallaft/internal/telemetry"
)

// TestWorkerPanicTriggersFlightDump: a contained worker panic is exactly the
// abnormal moment the black box exists for — with a flight recorder attached
// to the progress reporter, the panic must write a dump (ring + registry
// snapshot) while the campaign itself still completes with the panic as an
// error result.
func TestWorkerPanicTriggersFlightDump(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	flight := telemetry.NewRecorder(telemetry.RingSize)
	flight.SetDir(dir)
	flight.SetMetrics(reg)
	pr := NewProgressWith(io.Discard, "boom-campaign", 3, reg)
	pr.SetFlight(flight, reg)

	results := RunProgress(2, 3, pr, func(i int) (int, error) {
		if i == 1 {
			panic("kaboom in worker")
		}
		return i, nil
	})

	// Containment is unchanged: the campaign finished and only job 1 failed.
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	for i, r := range results {
		_, isPanic := r.Err.(*PanicError)
		if (i == 1) != isPanic {
			t.Errorf("job %d: panic error = %v, err = %v", i, isPanic, r.Err)
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "flight-campaign-panic-*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("dump files = %v (err %v), want exactly one", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	dump := string(raw)
	for _, want := range []string{
		`"flight_dump"`,              // header line with the reason
		"kaboom in worker",           // the panic value made it into the reason
		"boom-campaign",              // ... attributed to the campaign label
		"worker-panic",               // the ring note recorded before dumping
		"paft_campaign_panics_total", // registry snapshot rides along
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}

	if v := metric(t, reg, "paft_campaign_panics_total"); v != 1 {
		t.Errorf("paft_campaign_panics_total = %v, want 1", v)
	}
	if v := metric(t, reg, "paft_trace_flight_dumps_total"); v != 1 {
		t.Errorf("paft_trace_flight_dumps_total = %v, want 1", v)
	}
}

// TestPanicWithoutFlightStillContained: no flight recorder attached — the
// panic path must stay a pure counter increment.
func TestPanicWithoutFlightStillContained(t *testing.T) {
	reg := telemetry.NewRegistry()
	pr := NewProgressWith(io.Discard, "no-box", 1, reg)
	results := RunProgress(1, 1, pr, func(i int) (int, error) {
		panic("quiet kaboom")
	})
	if _, isPanic := results[0].Err.(*PanicError); !isPanic {
		t.Fatalf("err = %v, want PanicError", results[0].Err)
	}
	if v := metric(t, reg, "paft_campaign_panics_total"); v != 1 {
		t.Errorf("paft_campaign_panics_total = %v, want 1", v)
	}
}

func metric(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

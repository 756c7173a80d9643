package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"parallaft/internal/telemetry/profile"
)

// TestProfileGolden pins the sampling profiler's folded-stacks output and the
// overhead-attribution ledger for one fixed workload byte for byte. Both are
// fed exclusively from the simulated clock and the machine's energy books, so
// they must be exactly as deterministic as the simulation: a drift here means
// the profiler leaked host-side state into its sample points, or a charge
// site moved without the cost model moving (which Reconcile would also
// reject). The ledger keeps simulated books only, so it is pinned verbatim.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/parallaft -run TestProfileGolden -update
func TestProfileGolden(t *testing.T) {
	dir := t.TempDir()
	foldedPath := filepath.Join(dir, "prof.folded")
	pprofPath := filepath.Join(dir, "prof.pb.gz")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-workload", "429.mcf", "-scale", "0.05", "-stats-json",
		"-ledger",
		"-profile-folded", foldedPath,
		"-profile-out", pprofPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}

	// The binary profile must at minimum be valid gzip (full pprof
	// interoperability is covered in internal/telemetry/profile).
	pb, err := os.ReadFile(pprofPath)
	if err != nil {
		t.Fatalf("no pprof output: %v", err)
	}
	if _, err := gzip.NewReader(bytes.NewReader(pb)); err != nil {
		t.Fatalf("-profile-out is not gzip: %v", err)
	}

	folded, err := os.ReadFile(foldedPath)
	if err != nil {
		t.Fatalf("no folded-stacks output: %v", err)
	}
	if len(folded) == 0 {
		t.Fatal("folded-stacks output is empty")
	}

	var obj struct {
		Ledger *profile.Summary `json:"ledger"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil {
		t.Fatalf("stats-json is not valid JSON: %v\n%s", err, stdout.String())
	}
	if obj.Ledger == nil {
		t.Fatal("stats-json carries no ledger block")
	}
	ledgerJSON, err := json.MarshalIndent(obj.Ledger, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	ledgerJSON = append(ledgerJSON, '\n')

	checkGolden(t, "profile_folded_golden.txt", folded)
	checkGolden(t, "ledger_golden.json", ledgerJSON)
}

package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parallaft/internal/checkd"
	"parallaft/internal/packet"
)

// TestStatsJSON pins the machine-readable stats path: one compact JSON
// object per program, carrying the run's stats block.
func TestStatsJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "stress.getpid", "-scale", "0.05", "-stats-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	line := strings.TrimSpace(stdout.String())
	if strings.Count(line, "\n") != 0 {
		t.Fatalf("want exactly one JSON line, got:\n%s", stdout.String())
	}
	var obj struct {
		Benchmark string `json:"benchmark"`
		Mode      string `json:"mode"`
		Stats     struct {
			Slices      int     `json:"Slices"`
			Checkpoints int     `json:"Checkpoints"`
			AllWallNs   float64 `json:"AllWallNs"`
			Stdout      []byte  `json:"Stdout"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, line)
	}
	if obj.Mode != "parallaft" {
		t.Errorf("mode = %q", obj.Mode)
	}
	if !strings.Contains(obj.Benchmark, "getpid") {
		t.Errorf("benchmark = %q", obj.Benchmark)
	}
	if obj.Stats.AllWallNs <= 0 {
		t.Errorf("AllWallNs = %v, want > 0", obj.Stats.AllWallNs)
	}
	if len(obj.Stats.Stdout) == 0 {
		t.Error("stats carry no program stdout")
	}
}

func TestStatsJSONBaseline(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-mode", "baseline", "-workload", "stress.getpid", "-scale", "0.05", "-stats-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	var obj struct {
		Mode  string `json:"mode"`
		Stats struct {
			Instrs   uint64 `json:"Instrs"`
			ExitCode int64  `json:"ExitCode"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &obj); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if obj.Mode != "baseline" || obj.Stats.Instrs == 0 {
		t.Errorf("unexpected baseline stats: %s", stdout.String())
	}
}

// TestExportPackets runs a workload with -export-packets and checks that
// the directory holds a loadable store and one packet per sealed segment.
func TestExportPackets(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pkts")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "stress.devzero", "-scale", "0.05", "-export-packets", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	if _, err := os.Stat(filepath.Join(dir, packet.StoreName)); err != nil {
		t.Fatalf("no page store exported: %v", err)
	}
	_, pkts, err := packet.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(pkts) == 0 {
		t.Fatal("no packets exported")
	}
	if !strings.Contains(stderr.String(), "packets written") {
		t.Errorf("stderr missing export summary: %q", stderr.String())
	}
}

// startFarmNode runs a checkd server on loopback TCP and returns its node
// spec for the -farm flag.
func startFarmNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := checkd.NewServer(checkd.Options{Workers: 2})
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }() //nolint:errcheck
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
	})
	return "tcp:" + ln.Addr().String()
}

// TestFarmRun drives -farm end to end through the CLI: every sealed segment
// is re-checked on a two-node fleet, the stats block gains the farm lines,
// and the exit is clean only because every farm verdict passed.
func TestFarmRun(t *testing.T) {
	a, b := startFarmNode(t), startFarmNode(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "458.sjeng", "-scale", "0.05",
		"-farm", a + "," + b}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "farm.verdicts:") {
		t.Fatalf("stats block missing the farm summary:\n%s", out)
	}
	if !strings.Contains(out, "diverged=0 infra=0") {
		t.Errorf("farm verdicts not clean:\n%s", out)
	}
	if strings.Count(out, "farm.node ") != 2 {
		t.Errorf("want one farm.node line per node:\n%s", out)
	}
}

// TestFarmRunStatsJSON pins the machine-readable farm block.
func TestFarmRunStatsJSON(t *testing.T) {
	spec := startFarmNode(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "stress.getpid", "-scale", "0.05",
		"-farm", spec, "-stats-json"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	var obj struct {
		Farm struct {
			Verdicts int `json:"verdicts"`
			OK       int `json:"ok"`
			Diverged int `json:"diverged"`
			Infra    int `json:"infra"`
			Nodes    []struct {
				Addr     string `json:"Addr"`
				Verdicts int    `json:"Verdicts"`
			} `json:"nodes"`
		} `json:"farm"`
		Telemetry []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value,omitempty"`
		} `json:"telemetry"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &obj); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if obj.Farm.Verdicts == 0 || obj.Farm.OK != obj.Farm.Verdicts {
		t.Errorf("farm block = %+v, want all verdicts ok", obj.Farm)
	}
	if len(obj.Farm.Nodes) != 1 || obj.Farm.Nodes[0].Addr != spec {
		t.Errorf("farm nodes = %+v, want the single node %s", obj.Farm.Nodes, spec)
	}
	found := false
	for _, m := range obj.Telemetry {
		if m.Name == "paft_farm_verdicts_total" && m.Value == float64(obj.Farm.Verdicts) {
			found = true
		}
	}
	if !found {
		t.Error("telemetry snapshot missing paft_farm_verdicts_total matching the farm block")
	}
}

// TestFarmFlagValidation: -farm outside checking modes or combined with
// -export-packets is a usage error.
func TestFarmFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-mode", "baseline", "-farm", "tcp:127.0.0.1:1", "-workload", "stress.getpid"}, "requires a checking mode"},
		{[]string{"-farm", "tcp:127.0.0.1:1", "-export-packets", "x", "-workload", "stress.getpid"}, "use one"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr %q)", tc.args, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want it to mention %q", tc.args, stderr.String(), tc.want)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "no-such-benchmark"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown workload") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestBadNMRFlagsFail mirrors the unknown-workload check for the NMR knobs:
// nonsensical replica counts, unknown diversity presets, and NMR outside
// parallaft mode are usage errors (exit 2), not mid-run panics.
func TestBadNMRFlagsFail(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-checkers", "0", "-workload", "stress.getpid"}, "-checkers must be a positive replica count"},
		{[]string{"-checkers", "-3", "-workload", "stress.getpid"}, "-checkers must be a positive replica count"},
		{[]string{"-diversity", "none,warp-core", "-workload", "stress.getpid"}, "unknown diversity preset"},
		{[]string{"-checkers", "3", "-mode", "raft", "-workload", "stress.getpid"}, "requires -mode parallaft"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit code %d, want 2 (stderr %q)", tc.args, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want it to mention %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestNMRRun drives a short main+3 run end to end through the CLI and
// checks the vote block appears with every segment unanimous.
func TestNMRRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-checkers", "3", "-diversity", "none,skid4x,bigcore",
		"-workload", "stress.getpid", "-scale", "0.05"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "vote.unanimous:") {
		t.Errorf("stats block missing the vote counters:\n%s", out)
	}
	if strings.Contains(out, "DETECTED ERROR") {
		t.Errorf("clean NMR run flagged an error:\n%s", out)
	}
}

// TestNMRStatsJSONDeterministic: three checkers and their checkpoints share
// frames three and five ways, so the sampled PSS sums inexact terms; the
// stats must still be the same bytes on every run.
func TestNMRStatsJSONDeterministic(t *testing.T) {
	var outs [2]bytes.Buffer
	for i := range outs {
		var stderr bytes.Buffer
		code := run([]string{"-workload", "403.gcc", "-scale", "0.05", "-checkers", "3", "-stats-json"}, &outs[i], &stderr)
		if code != 0 {
			t.Fatalf("run %d: exit code %d, stderr:\n%s", i, code, stderr.String())
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Errorf("two runs differ:\n%s\n%s", outs[0].String(), outs[1].String())
	}
}

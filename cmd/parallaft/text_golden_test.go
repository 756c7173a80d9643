package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTextBlockGolden pins the Appendix A.7 stats block, byte for byte, for
// one fixed workload in every shape the block takes: the baseline block, the
// Parallaft and RAFT blocks, the instruction-sliced Intel machine and the
// main+3 vote lines. It is the check that the run-setup path (machine,
// kernel, loader, engine and runtime config) builds the same run for each.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/parallaft -run TestTextBlockGolden -update
func TestTextBlockGolden(t *testing.T) {
	var all bytes.Buffer
	for _, extra := range [][]string{
		{"-mode", "baseline"},
		{"-mode", "parallaft"},
		{"-mode", "raft"},
		{"-machine", "intel"},
		{"-checkers", "3"},
	} {
		args := append([]string{"-workload", "458.sjeng", "-scale", "0.05"}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr:\n%s", extra, code, stderr.String())
		}
		all.WriteString("$ parallaft " + strings.Join(args, " ") + "\n")
		all.Write(stdout.Bytes())
		all.WriteString("\n") // the guest's own output ends without one
	}
	checkGolden(t, "text_block_golden.txt", all.Bytes())
}

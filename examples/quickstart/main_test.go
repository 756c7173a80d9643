package main

import "testing"

// TestExampleRuns runs the example end to end, so that it keeps building and
// keeps showing what it claims: main exits the test binary through log.Fatal
// on any failure.
func TestExampleRuns(t *testing.T) { main() }

package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestRunErrorNamesFleetOnce runs the command with a publish rate that
// fleet.Run rejects. The error already names the fleet package, so the
// command must print it with that one prefix.
func TestRunErrorNamesFleetOnce(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	out, err := exec.Command(gobin, "run", ".", "-publish-rate", "NaN").CombinedOutput()
	if err == nil {
		t.Fatalf("cheriot-fleet accepted a NaN publish rate:\n%s", out)
	}
	const want = "fleet: PublishRate is NaN, want a finite number"
	if !strings.Contains(string(out), want) || strings.Contains(string(out), "fleet: fleet:") {
		t.Fatalf("output:\n%s\nwant the message %q with one prefix", out, want)
	}
}

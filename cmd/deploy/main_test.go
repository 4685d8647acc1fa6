package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildDeploy builds the real binary into a test temp dir.
func buildDeploy(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "deploy")
	build := exec.Command("go", "build", "-o", bin, "drainnas/cmd/deploy")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestCorpusFlagsBelowOneAreUsageErrors: GenerateCorpus replaces a chip
// size or scale below 1 with its default (64-px chips, the full 12,068-chip
// corpus), so deploy refuses one with exit status 2, names the flag, and
// prints nothing on stdout — no banner, no training.
func TestCorpusFlagsBelowOneAreUsageErrors(t *testing.T) {
	bin := buildDeploy(t)
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-chip", []string{"-chip", "0"}},
		{"-scale", []string{"-scale", "0"}},
		{"-chip", []string{"-chip", "-3", "-scale", "600"}},
		{"-scale", []string{"-epochs", "1", "-scale", "-1"}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("deploy %v: %v, want exit status 2\n%s", tc.args, err, stderr.Bytes())
		}
		if want := "for flag " + tc.flag + ": must be at least 1"; !strings.Contains(stderr.String(), want) {
			t.Fatalf("deploy %v: stderr does not name %s:\n%s", tc.args, tc.flag, stderr.Bytes())
		}
		if stdout.Len() != 0 {
			t.Fatalf("deploy %v printed before refusing:\n%s", tc.args, stdout.Bytes())
		}
	}
}

// TestDeployBinarySmoke builds the real binary and runs the full
// train → export → reload → verify → load-test pipeline at the smallest
// scale, asserting the output is well-formed at every stage.
func TestDeployBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := buildDeploy(t)
	outFile := filepath.Join(t.TempDir(), "model.dnnx")
	cmd := exec.Command(bin,
		"-epochs", "1", "-scale", "600", "-chip", "32", "-width", "8",
		"-out", outFile,
		"-load", "24", "-load-clients", "4")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("deploy run: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"exported container:",
		"plan compiled:",
		"prediction agreement (runtime vs training model):",
		"host CPU inference",
		"load test: 24 requests",
		"served 24/24",
		"client-observed latency  (n=24)",
		"p50 ",
		"p99 ",
		"mean batch",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

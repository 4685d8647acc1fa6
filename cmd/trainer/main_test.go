package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrainerBinarySmoke builds the real binary, trains one epoch at the
// smallest scale and checks every stage of the output, then checks that
// -describe prints the architecture without training.
func TestTrainerBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "trainer")
	build := exec.Command("go", "build", "-o", bin, "drainnas/cmd/trainer")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("trainer %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	text := run("-epochs", "1", "-scale", "600", "-chip", "32", "-width", "8")
	for _, want := range []string{
		"train 14 / val 2 samples, 5 channels",
		"epoch 1: loss ",
		"val acc ",
		"lr 0.0200)",
		"final: train acc ",
		"validation report: acc=",
		" auc=",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "epoch 2:") {
		t.Fatalf("-epochs 1 ran a second epoch:\n%s", text)
	}

	desc := run("-describe", "-width", "8")
	for _, want := range []string{"ResNet-18", "conv1: 3x3 s=2 p=1 -> 8 ch", "layer1:"} {
		if !strings.Contains(desc, want) {
			t.Fatalf("-describe output missing %q:\n%s", want, desc)
		}
	}
	if strings.Contains(desc, "epoch") {
		t.Fatalf("-describe trained:\n%s", desc)
	}
}

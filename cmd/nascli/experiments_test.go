package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestReproCheckPrintedTables holds each subcommand's stdout to a golden
// file byte for byte. The goldens were captured from the standalone
// latpred, paretoviz, datagen and trainer binaries these subcommands
// replaced (latpred_validate's Device column has since been widened to
// its longest device string, whitespace only), so a difference is a
// change to a printed table, never a reason to regenerate the golden.
func TestReproCheckPrintedTables(t *testing.T) {
	bin := buildNascli(t)
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"latpred", []string{"latpred"}},
		{"latpred_breakdown", []string{"latpred", "-kernel", "7", "-stride", "2", "-padding", "3", "-breakdown", "myriadvpu"}},
		{"latpred_validate", []string{"latpred", "-validate"}},
		{"paretoviz", []string{"paretoviz"}},
		{"datagen_stats", []string{"datagen", "-scale", "600", "-stats"}},
		{"trainer_describe", []string{"trainer", "-describe", "-channels", "7", "-kernel", "7", "-stride", "2", "-padding", "3", "-pool", "1", "-width", "64"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(bin, tc.args...)
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("nascli %v: %v\n%s", tc.args, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("nascli %v printed:\n%s\nwant (testdata/%s.golden):\n%s", tc.args, got, tc.golden, want)
			}
		})
	}
}

// TestCorpusFlagsBelowOneAreUsageErrors: GenerateCorpus replaces a chip
// size or scale below 1 with its default, so each command that builds a
// corpus refuses one with exit status 2, names the flag, and prints
// nothing on stdout — no banner announcing a corpus it would not make.
func TestCorpusFlagsBelowOneAreUsageErrors(t *testing.T) {
	bin := buildNascli(t)
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-scale", []string{"datagen", "-scale", "0"}},
		{"-size", []string{"datagen", "-size", "0"}},
		{"-size", []string{"datagen", "-size", "-4", "-scale", "600"}},
		{"-chip", []string{"trainer", "-chip", "0"}},
		{"-scale", []string{"trainer", "-scale", "-1"}},
		{"-chip", []string{"-backend", "train", "-channels", "5", "-chip", "0"}},
		{"-scale", []string{"-backend", "train", "-channels", "5", "-scale", "0"}},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("nascli %v: %v, want exit status 2\n%s", tc.args, err, stderr.Bytes())
		}
		if want := "for flag " + tc.flag + ":"; !strings.Contains(stderr.String(), want) {
			t.Fatalf("nascli %v: stderr does not name %s:\n%s", tc.args, tc.flag, stderr.Bytes())
		}
		if stdout.Len() != 0 {
			t.Fatalf("nascli %v printed before refusing:\n%s", tc.args, stdout.Bytes())
		}
	}
}

// TestTrainerBinarySmoke builds the real binary, trains one epoch at the
// smallest scale through nascli trainer and checks every stage of the
// output, then checks that -describe prints the architecture without
// training.
func TestTrainerBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := buildNascli(t)

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append([]string{"trainer"}, args...)...).CombinedOutput()
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

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"drainnas/internal/api"
	"drainnas/internal/fronttest"
	"drainnas/internal/infer"
	"drainnas/internal/tensor"
)

// epochTime is the one timing a golden run prints: trainer's per-epoch
// wall time.
var epochTime = regexp.MustCompile(`\(\d+\.\ds,`)

// TestReproCheckPrintedTables holds each subcommand's stdout to a golden
// file byte for byte, apart from trainer's per-epoch wall time. The
// goldens were captured from the standalone latpred, paretoviz, datagen
// and trainer binaries these subcommands replaced (latpred_validate's
// Device column has since been widened to its longest device string,
// whitespace only), and trainer_epoch1 from nascli trainer before it took
// over the deployment drill, so a difference is a change to a printed
// table, never a reason to regenerate the golden. A row that trains
// prints losses and accuracies that are bit-exact only on the kernel
// they were captured on.
func TestReproCheckPrintedTables(t *testing.T) {
	bin := buildNascli(t)
	for _, tc := range []struct {
		golden string
		args   []string
		trains bool
	}{
		{"latpred", []string{"latpred"}, false},
		{"latpred_breakdown", []string{"latpred", "-kernel", "7", "-stride", "2", "-padding", "3", "-breakdown", "myriadvpu"}, false},
		{"latpred_validate", []string{"latpred", "-validate"}, false},
		{"paretoviz", []string{"paretoviz"}, false},
		{"datagen_stats", []string{"datagen", "-scale", "600", "-stats"}, false},
		{"trainer_describe", []string{"trainer", "-describe", "-channels", "7", "-kernel", "7", "-stride", "2", "-padding", "3", "-pool", "1", "-width", "64"}, false},
		{"trainer_epoch1", []string{"trainer", "-epochs", "1", "-scale", "600", "-chip", "32", "-width", "8"}, true},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			if k := tensor.GemmArithmetic(); tc.trains && k != "fused-6x16" {
				t.Skipf("golden captured under the fused-6x16 arithmetic, this process runs %s", tensor.GemmKernelName())
			}
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
			got, want = epochTime.ReplaceAll(got, []byte("(N.Ns,")), epochTime.ReplaceAll(want, []byte("(N.Ns,"))
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
// trainer refuses a load drive without clients, which would never hand
// out its requests, and a -url without -load, which would never contact
// the tier, the same way.
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
		{"-load-clients", []string{"trainer", "-load", "3", "-load-clients", "0"}},
		{"-url", []string{"trainer", "-url", "http://127.0.0.1:1"}},
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

// TestDeployBinarySmoke runs the full train → export → reload → verify →
// load-test pipeline through nascli trainer at the smallest scale,
// asserting the output is well-formed at every stage.
func TestDeployBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := buildNascli(t)
	outFile := filepath.Join(t.TempDir(), "model.dnnx")
	cmd := exec.Command(bin, "trainer",
		"-epochs", "1", "-scale", "600", "-chip", "32", "-width", "8",
		"-out", outFile,
		"-load", "24", "-load-clients", "4")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("trainer run: %v\n%s", err, out)
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

// TestTrainerExportServedByServd follows the README's export → serve flow:
// nascli trainer -out DIR/lean.dnnx, then servd -models DIR must answer
// /v1/predict for "lean" with the logits the compiled plan gives on the
// same chip.
func TestTrainerExportServedByServd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary test skipped in -short mode")
	}
	bin := buildNascli(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "lean.dnnx")
	if out, err := exec.Command(bin, "trainer", "-epochs", "1", "-scale", "600", "-chip", "32", "-width", "8", "-out", path).CombinedOutput(); err != nil {
		t.Fatalf("trainer -out: %v\n%s", err, out)
	}
	container, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := infer.LoadPlan(bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.RandNormal(tensor.NewRNG(3), 1, 1, 5, 32, 32)
	want, err := plan.NewSession().Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	req, err := api.PredictFromTensor("lean", "", x)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	p := fronttest.StartProc(t, fronttest.Build(t, t.TempDir(), "servd", false), "-models", dir)
	resp, got := fronttest.Do(t, "POST", p.URL+"/v1/predict", "", body)
	var pr api.PredictResponse
	if err := json.Unmarshal(got, &pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("predict lean -> %d, %v: %s", resp.StatusCode, err, got)
	}
	if len(pr.Logits) != len(want.Data()) {
		t.Fatalf("servd answered %d logits, the plan gives %d", len(pr.Logits), len(want.Data()))
	}
	for i, w := range want.Data() {
		if d := math.Abs(float64(pr.Logits[i] - w)); d > 1e-4 {
			t.Fatalf("logit %d: servd %v, plan %v (|Δ| %g > 1e-4)", i, pr.Logits[i], w, d)
		}
	}
	p.Term(t)
}

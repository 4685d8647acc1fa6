package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// trialJSONGolden is the JSON a Trial encodes to, as the pipeline wrote it
// before per-device latencies became an array: a zero Trial, the digest of
// the whole surrogate sweep and of Table 5's baselines, and a few of their
// trials verbatim. Every later Trial type has to encode to the same bytes.
const trialJSONGolden = "testdata/trial_json.golden"

// describeTrialJSON renders the golden: one labelled line per verbatim
// trial, and for each list its length and the sha256 of its encoding.
func describeTrialJSON(t *testing.T, sweep, baselines []Trial, front []int) []byte {
	t.Helper()
	var b bytes.Buffer
	line := func(label string, v any) {
		out, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", label, out)
	}
	digest := func(label string, trials []Trial) {
		out, err := json.Marshal(trials)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s n=%d sha256=%x\n", label, len(trials), sha256.Sum256(out))
	}
	line("zero", Trial{})
	digest("sweep", sweep)
	line("sweep[0]", sweep[0])
	for _, i := range front {
		line(fmt.Sprintf("sweep[%d]", i), sweep[i])
	}
	digest("baselines", baselines)
	line("baselines[0]", baselines[0])
	line("baselines[5]", baselines[5])
	return b.Bytes()
}

// TestTrialJSONGolden holds the JSON of a zero Trial, of core.Run over
// PaperSpace (surrogate accuracy, simulated attrition) and of Baselines to
// the captured bytes.
func TestTrialJSONGolden(t *testing.T) {
	res := fullRun(t)
	baselines, err := Baselines(nil, surrogateEval(), 0)
	if err != nil {
		t.Fatal(err)
	}
	got := describeTrialJSON(t, res.Trials, baselines, res.FrontIdx)
	want, err := os.ReadFile(trialJSONGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the captured encoding\n--- got\n%s--- want\n%s", trialJSONGolden, got, want)
	}
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"drainnas/internal/latmeter"
)

// sweepPin holds the digests of the paper's whole surrogate sweep and of
// Table 5's baselines as the pipeline produced them before trials were
// priced from a per-geometry table; every later measurement path has to
// reproduce them bit for bit.
const sweepPin = "testdata/sweep.pin"

// hashTrials feeds every field of every trial to h: the configuration's
// fields, each float as its bit pattern and PerDevice in
// latmeter.Devices() order. The digests were captured when PerDevice was a
// map, so each device is still written as present in it.
func hashTrials(h hash.Hash, trials []Trial) {
	var buf [8]byte
	f64 := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, t := range trials {
		fmt.Fprintf(h, "%+v|", t.Config)
		f64(t.Accuracy)
		f64(t.LatencyMS)
		f64(t.LatStdMS)
		fmt.Fprintf(h, "%d|", len(t.PerDevice))
		for i, d := range latmeter.Devices() {
			fmt.Fprintf(h, "%s:true|", d.Name)
			f64(t.PerDevice[i])
		}
		f64(t.MemoryMB)
		f64(t.EnergyMJ)
	}
}

// TestSweepTrialsPinned holds core.Run over PaperSpace (surrogate
// accuracy, simulated attrition) and core.Baselines over the six input
// combinations to the captured digests. TestRunDeterministic compares Run
// with a serial Measure loop, so it cannot see a change both share; this
// test can.
func TestSweepTrialsPinned(t *testing.T) {
	res := fullRun(t)
	h := sha256.New()
	hashTrials(h, res.Trials)
	var got bytes.Buffer
	fmt.Fprintf(&got, "sweep raw=%d valid=%d front=%v trials=%x\n", res.RawTrials, len(res.Trials), res.FrontIdx, h.Sum(nil))

	baselines, err := Baselines(nil, surrogateEval(), 0)
	if err != nil {
		t.Fatal(err)
	}
	h.Reset()
	hashTrials(h, baselines)
	fmt.Fprintf(&got, "baselines n=%d trials=%x\n", len(baselines), h.Sum(nil))

	want, err := os.ReadFile(sweepPin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from the captured sweep\n--- got\n%s--- want\n%s", sweepPin, got.Bytes(), want)
	}
}

// The classification-evaluation suite of internal/report (Confusion,
// ROCAUC, Evaluate — moved there with the code they test). The
// file stays in this directory because the test floor pins its nine names
// under drainnas/internal/metrics; it moves when that budget allows.
package metrics_test

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	. "drainnas/internal/report"
	"drainnas/internal/tensor"
)

func TestConfusionBasics(t *testing.T) {
	preds := []int{1, 1, 0, 0, 1, 0}
	labels := []int{1, 0, 0, 1, 1, 0}
	c := ConfusionFromPredictions(preds, labels)
	if c.TP != 2 || c.FP != 1 || c.TN != 2 || c.FN != 1 {
		t.Fatalf("confusion %s", c)
	}
	if math.Abs(c.Accuracy()-4.0/6) > 1e-12 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
	if math.Abs(c.Precision()-2.0/3) > 1e-12 {
		t.Fatalf("precision %v", c.Precision())
	}
	if math.Abs(c.Recall()-2.0/3) > 1e-12 {
		t.Fatalf("recall %v", c.Recall())
	}
	if math.Abs(c.F1()-2.0/3) > 1e-12 {
		t.Fatalf("f1 %v", c.F1())
	}
}

func TestConfusionDegenerate(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.MCC() != 0 {
		t.Fatal("empty confusion must yield zeros")
	}
	allNeg := ConfusionFromPredictions([]int{0, 0}, []int{0, 0})
	if allNeg.Accuracy() != 1 || allNeg.Precision() != 0 {
		t.Fatalf("all-negative: %v / %v", allNeg.Accuracy(), allNeg.Precision())
	}
}

func TestMCCPerfectAndInverse(t *testing.T) {
	perfect := ConfusionFromPredictions([]int{1, 0, 1, 0}, []int{1, 0, 1, 0})
	if math.Abs(perfect.MCC()-1) > 1e-12 {
		t.Fatalf("perfect MCC %v", perfect.MCC())
	}
	inverse := ConfusionFromPredictions([]int{0, 1, 0, 1}, []int{1, 0, 1, 0})
	if math.Abs(inverse.MCC()+1) > 1e-12 {
		t.Fatalf("inverse MCC %v", inverse.MCC())
	}
}

func TestROCAUCKnownValues(t *testing.T) {
	// Perfect separation → AUC 1.
	if auc := ROCAUC([]float64{0.9, 0.8, 0.2, 0.1}, []int{1, 1, 0, 0}); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC %v", auc)
	}
	// Perfectly inverted → AUC 0.
	if auc := ROCAUC([]float64{0.1, 0.2, 0.8, 0.9}, []int{1, 1, 0, 0}); math.Abs(auc) > 1e-12 {
		t.Fatalf("inverted AUC %v", auc)
	}
	// All scores equal → AUC 0.5 (midranks).
	if auc := ROCAUC([]float64{0.5, 0.5, 0.5, 0.5}, []int{1, 1, 0, 0}); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC %v", auc)
	}
	// One class absent → 0.5 by convention.
	if auc := ROCAUC([]float64{0.1, 0.9}, []int{1, 1}); auc != 0.5 {
		t.Fatalf("single-class AUC %v", auc)
	}
}

func TestROCAUCMatchesCurveIntegral(t *testing.T) {
	// Property: rank-statistic AUC equals the area under the ROC curve (for
	// tie-free scores the curve is a staircase, so the area is exact).
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 40
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			labels[i] = rng.Intn(2)
			// Scores correlated with the label plus noise; ties impossible
			// w.p. 1.
			scores[i] = float64(labels[i]) + rng.NormFloat64()
		}
		auc := ROCAUC(scores, labels)
		// Walk the ROC staircase from the highest score down: a positive
		// steps TPR up, a negative steps FPR right under the current TPR.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
		var nPos, nNeg, tp int
		for _, l := range labels {
			if l == 1 {
				nPos++
			} else {
				nNeg++
			}
		}
		if nPos == 0 || nNeg == 0 {
			return auc == 0.5
		}
		integral := 0.0
		for _, i := range order {
			if labels[i] == 1 {
				tp++
			} else {
				integral += float64(tp) / float64(nPos) / float64(nNeg)
			}
		}
		return math.Abs(auc-integral) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateReport(t *testing.T) {
	scores := []float64{0.95, 0.85, 0.6, 0.4, 0.2, 0.05}
	labels := []int{1, 1, 1, 0, 0, 0}
	r := Evaluate(scores, labels, 0.5)
	if r.Accuracy != 1 || r.F1 != 1 || r.AUC != 1 {
		t.Fatalf("report %s", r)
	}
	// Threshold shifting trades precision and recall.
	strict := Evaluate(scores, labels, 0.9)
	if strict.Recall >= r.Recall {
		t.Fatal("stricter threshold must reduce recall")
	}
	if strict.Precision < r.Precision {
		t.Fatal("stricter threshold must not reduce precision here")
	}
}

func TestAUCInvariantToMonotoneTransform(t *testing.T) {
	// Property: AUC depends only on score ranks.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 30
		scores := make([]float64, n)
		scaled := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			labels[i] = rng.Intn(2)
			scores[i] = rng.NormFloat64()
			scaled[i] = math.Exp(scores[i]) // strictly monotone transform
		}
		return math.Abs(ROCAUC(scores, labels)-ROCAUC(scaled, labels)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ROCAUC([]float64{1}, []int{1, 0})
}

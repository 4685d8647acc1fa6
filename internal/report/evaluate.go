package report

// Binary-classification evaluation beyond plain accuracy — precision,
// recall, F1, ROC-AUC and the reliability-oriented summaries a hydrography
// user needs before trusting a drainage-crossing detector ("did we miss
// culverts?" is a recall question, not an accuracy question).

import (
	"fmt"
	"math"
	"sort"
)

// Confusion is a binary confusion matrix with the positive class = 1.
type Confusion struct {
	TP, FP, TN, FN int
}

// ConfusionFromPredictions tallies predictions against labels.
func ConfusionFromPredictions(preds, labels []int) Confusion {
	if len(preds) != len(labels) {
		panic(fmt.Sprintf("metrics: %d predictions vs %d labels", len(preds), len(labels)))
	}
	var c Confusion
	for i, p := range preds {
		switch {
		case p == 1 && labels[i] == 1:
			c.TP++
		case p == 1 && labels[i] == 0:
			c.FP++
		case p == 0 && labels[i] == 0:
			c.TN++
		default:
			c.FN++
		}
	}
	return c
}

// Total returns the sample count.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy returns (TP+TN)/total; 0 for an empty matrix.
func (c Confusion) Accuracy() float64 {
	n := c.Total()
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// Precision returns TP/(TP+FP); 0 when nothing was predicted positive.
func (c Confusion) Precision() float64 {
	d := c.TP + c.FP
	if d == 0 {
		return 0
	}
	return float64(c.TP) / float64(d)
}

// Recall returns TP/(TP+FN); 0 when there are no positives.
func (c Confusion) Recall() float64 {
	d := c.TP + c.FN
	if d == 0 {
		return 0
	}
	return float64(c.TP) / float64(d)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// MCC returns the Matthews correlation coefficient, the balanced
// single-number summary robust to class skew.
func (c Confusion) MCC() float64 {
	tp, fp, tn, fn := float64(c.TP), float64(c.FP), float64(c.TN), float64(c.FN)
	den := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
	if den == 0 {
		return 0
	}
	return (tp*tn - fp*fn) / den
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d", c.TP, c.FP, c.TN, c.FN)
}

// ROCAUC computes the area under the ROC curve from positive-class scores
// (higher score = more positive) via the rank statistic (equivalent to the
// Mann–Whitney U), with midrank handling of ties. Returns 0.5 when a class
// is absent.
func ROCAUC(scores []float64, labels []int) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: %d scores vs %d labels", len(scores), len(labels)))
	}
	n := len(scores)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] < scores[order[b]] })
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && scores[order[j+1]] == scores[order[i]] {
			j++
		}
		mid := float64(i+j)/2 + 1 // midrank, 1-based
		for k := i; k <= j; k++ {
			ranks[order[k]] = mid
		}
		i = j + 1
	}
	var rankSumPos float64
	var nPos, nNeg int
	for i, l := range labels {
		if l == 1 {
			rankSumPos += ranks[i]
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	u := rankSumPos - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// ROCPoint is one (FPR, TPR) point of the ROC curve.
type ROCPoint struct {
	FPR, TPR  float64
	Threshold float64
}

// ROCCurve returns the ROC curve points sweeping the threshold from +inf
// down, starting at (0,0) and ending at (1,1).
func ROCCurve(scores []float64, labels []int) []ROCPoint {
	n := len(scores)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	var nPos, nNeg int
	for _, l := range labels {
		if l == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	curve := []ROCPoint{{FPR: 0, TPR: 0, Threshold: math.Inf(1)}}
	tp, fp := 0, 0
	for i := 0; i < n; {
		j := i
		thr := scores[order[i]]
		for j < n && scores[order[j]] == thr {
			if labels[order[j]] == 1 {
				tp++
			} else {
				fp++
			}
			j++
		}
		pt := ROCPoint{Threshold: thr}
		if nPos > 0 {
			pt.TPR = float64(tp) / float64(nPos)
		}
		if nNeg > 0 {
			pt.FPR = float64(fp) / float64(nNeg)
		}
		curve = append(curve, pt)
		i = j
	}
	return curve
}

// Report is the full evaluation summary of a classifier on a dataset.
type Report struct {
	Confusion Confusion
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
	MCC       float64
	AUC       float64
}

// Evaluate builds the full report from positive-class scores and labels,
// thresholding scores at 0.5 for the confusion-based metrics (suitable for
// probabilities) unless a different threshold is given.
func Evaluate(scores []float64, labels []int, threshold float64) Report {
	preds := make([]int, len(scores))
	for i, s := range scores {
		if s >= threshold {
			preds[i] = 1
		}
	}
	c := ConfusionFromPredictions(preds, labels)
	return Report{
		Confusion: c,
		Accuracy:  c.Accuracy(),
		Precision: c.Precision(),
		Recall:    c.Recall(),
		F1:        c.F1(),
		MCC:       c.MCC(),
		AUC:       ROCAUC(scores, labels),
	}
}

// String renders the report on one line.
func (r Report) String() string {
	return fmt.Sprintf("acc=%.3f prec=%.3f rec=%.3f f1=%.3f mcc=%.3f auc=%.3f (%s)",
		r.Accuracy, r.Precision, r.Recall, r.F1, r.MCC, r.AUC, r.Confusion)
}

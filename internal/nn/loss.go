package nn

import (
	"fmt"
	"math"

	"drainnas/internal/tensor"
)

// CrossEntropy computes the mean softmax cross-entropy of logits (N, K)
// against integer labels, and the gradient w.r.t. the logits
// (softmax(x) - onehot(y)) / N, ready to feed into Backward.
func CrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	if logits.NDim() != 2 {
		panic(fmt.Sprintf("nn: CrossEntropy wants (N, K) logits, got %v", logits.Shape()))
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropy %d labels for %d samples", len(labels), n))
	}
	probs := tensor.SoftmaxRows(logits)
	grad = probs.Clone()
	invN := 1.0 / float64(n)
	total := 0.0
	for r := 0; r < n; r++ {
		y := labels[r]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: CrossEntropy label %d out of range [0,%d)", y, k))
		}
		p := float64(probs.At(r, y))
		if p < 1e-12 {
			p = 1e-12
		}
		total -= math.Log(p)
		grad.Data()[r*k+y] -= 1
	}
	tensor.ScaleInPlace(grad, float32(invN))
	return total * invN, grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	preds := tensor.ArgMaxRows(logits)
	if len(preds) != len(labels) {
		panic(fmt.Sprintf("nn: Accuracy %d predictions for %d labels", len(preds), len(labels)))
	}
	if len(labels) == 0 {
		return 0
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

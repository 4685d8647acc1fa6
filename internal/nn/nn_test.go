package nn

import (
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/tensor"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestConv2dShapes(t *testing.T) {
	r := tensor.NewRNG(1)
	c := NewConv2d("c", r, 3, 8, 3, 2, 1)
	x := tensor.RandNormal(r, 1, 2, 3, 16, 16)
	y := c.Forward(x, false)
	want := []int{2, 8, 8, 8}
	for i, d := range want {
		if y.Dim(i) != d {
			t.Fatalf("shape %v want %v", y.Shape(), want)
		}
	}
}

func TestConv2dParamCount(t *testing.T) {
	r := tensor.NewRNG(1)
	c := NewConv2d("c", r, 3, 8, 3, 1, 1)
	if n := NumParams(c.Params()); n != 8*3*3*3 {
		t.Fatalf("bias-free param count %d, want %d", n, 8*3*3*3)
	}
}

func TestLinearForwardBackwardNumerical(t *testing.T) {
	r := tensor.NewRNG(2)
	l := NewLinear("fc", r, 5, 3)
	x := tensor.RandNormal(r, 1, 4, 5)
	labels := []int{0, 2, 1, 2}

	lossAt := func() float64 {
		y := l.Forward(x, false)
		loss, _ := CrossEntropy(y, labels)
		return loss
	}

	y := l.Forward(x, true)
	_, g := CrossEntropy(y, labels)
	ZeroGrad(l.Params())
	gx := l.Backward(g)

	const eps = 1e-2
	// Check weight gradient entries.
	for _, idx := range []int{0, 7, 14} {
		orig := l.Weight.Data.Data()[idx]
		l.Weight.Data.Data()[idx] = orig + eps
		up := lossAt()
		l.Weight.Data.Data()[idx] = orig - eps
		down := lossAt()
		l.Weight.Data.Data()[idx] = orig
		want := (up - down) / (2 * eps)
		got := float64(l.Weight.Grad.Data()[idx])
		if !almostEqual(got, want, 1e-2) {
			t.Fatalf("dW[%d]: got %v want %v", idx, got, want)
		}
	}
	// Check input gradient entries.
	for _, idx := range []int{0, 9, 19} {
		orig := x.Data()[idx]
		x.Data()[idx] = orig + eps
		up := lossAt()
		x.Data()[idx] = orig - eps
		down := lossAt()
		x.Data()[idx] = orig
		want := (up - down) / (2 * eps)
		got := float64(gx.Data()[idx])
		if !almostEqual(got, want, 1e-2) {
			t.Fatalf("dx[%d]: got %v want %v", idx, got, want)
		}
	}
}

func TestBatchNormTrainStats(t *testing.T) {
	r := tensor.NewRNG(3)
	bn := NewBatchNorm2d("bn", 4)
	x := tensor.RandNormal(r, 3, 8, 4, 5, 5)
	// Shift channel 2 to mean 10.
	for s := 0; s < 8; s++ {
		for i := 0; i < 25; i++ {
			x.Data()[(s*4+2)*25+i] += 10
		}
	}
	y := bn.Forward(x, true)
	// Output channel 2 must be ~zero-mean unit-variance.
	sum, sumSq, n := 0.0, 0.0, 0
	for s := 0; s < 8; s++ {
		for i := 0; i < 25; i++ {
			v := float64(y.Data()[(s*4+2)*25+i])
			sum += v
			sumSq += v * v
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-3 {
		t.Fatalf("normalized mean=%v var=%v", mean, variance)
	}
	// Running mean moved toward 10 for channel 2.
	if bn.RunningMean[2] < 0.5 {
		t.Fatalf("running mean not updated: %v", bn.RunningMean[2])
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	r := tensor.NewRNG(4)
	bn := NewBatchNorm2d("bn", 2)
	// Train several steps so running stats converge toward the batch stats.
	for i := 0; i < 50; i++ {
		x := tensor.RandNormal(r, 2, 4, 2, 3, 3)
		bn.Forward(x, true)
	}
	x := tensor.Full(1.0, 1, 2, 3, 3)
	y := bn.Forward(x, false)
	// Eval output must be a deterministic affine map of the input; repeat
	// must match exactly.
	y2 := bn.Forward(x, false)
	for i := range y.Data() {
		if y.Data()[i] != y2.Data()[i] {
			t.Fatal("eval-mode BN not deterministic")
		}
	}
}

func TestBatchNormBackwardNumerical(t *testing.T) {
	r := tensor.NewRNG(5)
	bn := NewBatchNorm2d("bn", 2)
	// Give gamma/beta non-trivial values.
	bn.Gamma.Data.Data()[0] = 1.5
	bn.Gamma.Data.Data()[1] = 0.7
	bn.Beta.Data.Data()[0] = -0.3
	x := tensor.RandNormal(r, 1, 2, 2, 4, 4)
	probe := tensor.RandNormal(r, 1, 2, 2, 4, 4)

	lossAt := func() float64 {
		// Use a fresh BN clone (running stats are mutated by Forward but do
		// not affect train-mode output).
		y := bn.Forward(x, true)
		s := 0.0
		for i := range y.Data() {
			s += float64(y.Data()[i]) * float64(probe.Data()[i])
		}
		return s
	}

	base := bn.Forward(x, true)
	_ = base
	ZeroGrad(bn.Params())
	gx := bn.Backward(probe)

	const eps = 1e-2
	for _, idx := range []int{0, 17, 40, 63} {
		orig := x.Data()[idx]
		x.Data()[idx] = orig + eps
		up := lossAt()
		x.Data()[idx] = orig - eps
		down := lossAt()
		x.Data()[idx] = orig
		want := (up - down) / (2 * eps)
		got := float64(gx.Data()[idx])
		if !almostEqual(got, want, 3e-2) {
			t.Fatalf("dx[%d]: got %v want %v", idx, got, want)
		}
	}
	// Gamma gradient.
	for ch := 0; ch < 2; ch++ {
		orig := bn.Gamma.Data.Data()[ch]
		bn.Gamma.Data.Data()[ch] = orig + float32(eps)
		up := lossAt()
		bn.Gamma.Data.Data()[ch] = orig - float32(eps)
		down := lossAt()
		bn.Gamma.Data.Data()[ch] = orig
		want := (up - down) / (2 * eps)
		got := float64(bn.Gamma.Grad.Data()[ch])
		if !almostEqual(got, want, 3e-2) {
			t.Fatalf("dgamma[%d]: got %v want %v", ch, got, want)
		}
	}
}

func TestBasicBlockShapePreservingAndDownsample(t *testing.T) {
	r := tensor.NewRNG(6)
	same := NewBasicBlock("b1", r, 8, 8, 1)
	x := tensor.RandNormal(r, 1, 2, 8, 8, 8)
	y := same.Forward(x, false)
	if !y.SameShape(x) {
		t.Fatalf("identity block changed shape: %v", y.Shape())
	}
	if same.DownConv != nil {
		t.Fatal("identity block must not have a projection")
	}
	down := NewBasicBlock("b2", r, 8, 16, 2)
	y2 := down.Forward(x, false)
	want := []int{2, 16, 4, 4}
	for i, d := range want {
		if y2.Dim(i) != d {
			t.Fatalf("downsample shape %v want %v", y2.Shape(), want)
		}
	}
	if down.DownConv == nil {
		t.Fatal("downsample block needs a projection")
	}
}

func TestBasicBlockBackwardNumerical(t *testing.T) {
	r := tensor.NewRNG(7)
	blk := NewBasicBlock("b", r, 3, 6, 2)
	x := tensor.RandNormal(r, 1, 2, 3, 6, 6)
	out := blk.Forward(x, true)
	probe := tensor.RandNormal(r, 1, out.Shape()...)
	ZeroGrad(blk.Params())
	gx := blk.Backward(probe)

	lossAt := func() float64 {
		y := blk.Forward(x, true)
		s := 0.0
		for i := range y.Data() {
			s += float64(y.Data()[i]) * float64(probe.Data()[i])
		}
		return s
	}
	const eps = 1e-2
	for _, idx := range []int{0, 31, 71, 107} {
		orig := x.Data()[idx]
		x.Data()[idx] = orig + eps
		up := lossAt()
		x.Data()[idx] = orig - eps
		down := lossAt()
		x.Data()[idx] = orig
		want := (up - down) / (2 * eps)
		got := float64(gx.Data()[idx])
		if !almostEqual(got, want, 5e-2) {
			t.Fatalf("block dx[%d]: got %v want %v", idx, got, want)
		}
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over 2 classes → loss = ln 2.
	logits := tensor.New(3, 2)
	loss, grad := CrossEntropy(logits, []int{0, 1, 0})
	if !almostEqual(loss, math.Log(2), 1e-6) {
		t.Fatalf("loss=%v want ln2", loss)
	}
	// grad rows: (p - onehot)/N = (0.5-1, 0.5)/3 etc.
	if !almostEqual(float64(grad.At(0, 0)), -0.5/3, 1e-6) {
		t.Fatalf("grad=%v", grad.Data())
	}
}

func TestCrossEntropyGradSumsToZero(t *testing.T) {
	// Property: each row of the CE gradient sums to zero (softmax rows sum
	// to one; subtracting a one-hot preserves that).
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n, k := 5, 4
		logits := tensor.RandNormal(r, 3, n, k)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(k)
		}
		_, grad := CrossEntropy(logits, labels)
		for row := 0; row < n; row++ {
			s := 0.0
			for c := 0; c < k; c++ {
				s += float64(grad.At(row, c))
			}
			if math.Abs(s) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		2, 1, // pred 0
		0, 5, // pred 1
		3, 4, // pred 1
	}, 3, 2)
	if got := Accuracy(logits, []int{0, 1, 0}); !almostEqual(got, 2.0/3, 1e-9) {
		t.Fatalf("accuracy=%v", got)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||w - target||² with SGD; must converge.
	target := []float32{3, -2, 0.5}
	p := newParam("w", tensor.New(3))
	opt := NewSGD([]*Param{p}, 0.1, 0.9, 0)
	for step := 0; step < 200; step++ {
		p.ZeroGrad()
		for i := range target {
			p.Grad.Data()[i] = 2 * (p.Data.Data()[i] - target[i])
		}
		opt.Step()
	}
	for i := range target {
		if math.Abs(float64(p.Data.Data()[i]-target[i])) > 1e-3 {
			t.Fatalf("SGD failed to converge: %v", p.Data.Data())
		}
	}
}

func TestLRSchedules(t *testing.T) {
	cos := CosineLRSchedule(0.1, 0.001, 5)
	if !almostEqual(cos(0), 0.1, 1e-9) {
		t.Fatalf("cosine start %v", cos(0))
	}
	if !almostEqual(cos(4), 0.001, 1e-9) {
		t.Fatalf("cosine end %v", cos(4))
	}
	if cos(2) >= cos(1) || cos(3) >= cos(2) {
		t.Fatal("cosine schedule not monotone decreasing")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", tensor.New(4))
	for i := range p.Grad.Data() {
		p.Grad.Data()[i] = 3 // norm = 6
	}
	pre := ClipGradNorm([]*Param{p}, 1.0)
	if !almostEqual(pre, 6, 1e-6) {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if post := GradNorm([]*Param{p}); !almostEqual(post, 1, 1e-5) {
		t.Fatalf("post-clip norm %v", post)
	}
	// An exploding and a vanishing gradient: the norm is read right at any
	// magnitude, and clipping lands the exploding one on maxNorm.
	for _, norm := range []float64{1e12, 1e-15} {
		for i := range p.Grad.Data() { // four elements of norm/2: norm
			p.Grad.Data()[i] = float32(norm / 2)
		}
		if got := GradNorm([]*Param{p}); math.Abs(got-norm) > 1e-6*norm {
			t.Fatalf("GradNorm of a %g gradient = %g", norm, got)
		}
	}
	for i := range p.Grad.Data() {
		p.Grad.Data()[i] = 5e11
	}
	ClipGradNorm([]*Param{p}, 5)
	if post := GradNorm([]*Param{p}); !almostEqual(post, 5, 1e-5) {
		t.Fatalf("a 1e12 gradient clipped to norm %v, want 5", post)
	}
}

func TestSequentialComposesAndBackprops(t *testing.T) {
	r := tensor.NewRNG(9)
	seq := NewSequential("net",
		NewConv2d("c1", r, 2, 4, 3, 1, 1),
		NewBatchNorm2d("bn1", 4),
		NewReLU("r1"),
		NewMaxPool2d("p1", 2, 2, 0),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", r, 4, 2),
	)
	x := tensor.RandNormal(r, 1, 3, 2, 8, 8)
	y := seq.Forward(x, true)
	if y.Dim(0) != 3 || y.Dim(1) != 2 {
		t.Fatalf("output shape %v", y.Shape())
	}
	loss, g := CrossEntropy(y, []int{0, 1, 0})
	if math.IsNaN(loss) {
		t.Fatal("NaN loss")
	}
	ZeroGrad(seq.Params())
	gx := seq.Backward(g)
	if !gx.SameShape(x) {
		t.Fatalf("input grad shape %v", gx.Shape())
	}
	if GradNorm(seq.Params()) == 0 {
		t.Fatal("no parameter gradients flowed")
	}
}

// TestMaxPool2dAllPaddingWindowSendsNoGradient pools a 2×2 input through a
// 2×2 window with padding 2 and stride 1: 16 of the 25 windows lie wholly in
// the padding and output a constant 0, so their gradient reaches no input.
// The 9 others route theirs to the window's max.
func TestMaxPool2dAllPaddingWindowSendsNoGradient(t *testing.T) {
	pool := NewMaxPool2d("p", 2, 1, 2)
	y := pool.Forward(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2), true)
	if y.Dim(2) != 5 || y.Dim(3) != 5 {
		t.Fatalf("output shape %v, want 5x5", y.Shape())
	}
	gx := pool.Backward(tensor.Ones(y.Shape()...))
	want := []float32{1, 2, 2, 4}
	for i, v := range gx.Data() {
		if v != want[i] {
			t.Fatalf("input gradient %v, want %v (input[0] takes only the window that sees nothing else)", gx.Data(), want)
		}
	}
}

func TestTinyNetworkLearnsSeparableTask(t *testing.T) {
	// End-to-end sanity: a small conv net must learn to separate
	// bright-center vs bright-corner 8×8 images.
	r := tensor.NewRNG(10)
	seq := NewSequential("net",
		NewConv2d("c1", r, 1, 4, 3, 1, 1),
		NewBatchNorm2d("bn1", 4),
		NewReLU("r1"),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", r, 4, 2),
	)
	makeBatch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 8, 8)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := r.Intn(2)
			labels[i] = cls
			for j := 0; j < 64; j++ {
				x.Data()[i*64+j] = float32(r.NormFloat64() * 0.1)
			}
			if cls == 0 {
				x.Data()[i*64+3*8+3] += 3 // bright center
				x.Data()[i*64+3*8+4] += 3
			} else {
				x.Data()[i*64] += 3 // bright corner
				x.Data()[i*64+1] += 3
			}
		}
		return x, labels
	}
	opt := NewSGD(seq.Params(), 0.05, 0.9, 1e-4)
	for step := 0; step < 60; step++ {
		x, labels := makeBatch(16)
		y := seq.Forward(x, true)
		_, g := CrossEntropy(y, labels)
		ZeroGrad(seq.Params())
		seq.Backward(g)
		opt.Step()
	}
	x, labels := makeBatch(64)
	y := seq.Forward(x, false)
	if acc := Accuracy(y, labels); acc < 0.9 {
		t.Fatalf("tiny net only reached %.2f accuracy", acc)
	}
}

func TestBackwardWithoutForwardPanics(t *testing.T) {
	r := tensor.NewRNG(11)
	layers := []Layer{
		NewConv2d("c", r, 1, 1, 3, 1, 1),
		NewBatchNorm2d("bn", 1),
		NewReLU("r"),
		NewMaxPool2d("p", 2, 2, 0),
		NewGlobalAvgPool("g"),
	}
	for _, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Backward without Forward must panic", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 1, 2, 2))
		}()
	}
}

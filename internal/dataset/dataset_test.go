package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/tensor"
)

func toyDataset(n, c int, rng *tensor.RNG) *Dataset {
	x := tensor.RandNormal(rng, 2, n, c, 4, 4)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	return New(x, labels)
}

func TestNewValidation(t *testing.T) {
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(rng, 1, 3, 2, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label count mismatch")
		}
	}()
	New(x, []int{0, 1})
}

func TestSubsetCopies(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := toyDataset(6, 2, rng)
	sub := d.Subset([]int{1, 3, 5})
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	for i, idx := range []int{1, 3, 5} {
		if sub.Labels[i] != d.Labels[idx] {
			t.Fatal("subset labels wrong")
		}
	}
	// Mutating the subset must not touch the original.
	sub.X.Data()[0] = 999
	if d.X.Data()[1*2*16] == 999 {
		t.Fatal("subset aliases original data")
	}
}

func TestNormalizeStandardizes(t *testing.T) {
	rng := tensor.NewRNG(3)
	d := toyDataset(32, 3, rng)
	// Shift channel 1 to mean 5.
	n, c, plane := d.X.Dim(0), d.X.Dim(1), 16
	for s := 0; s < n; s++ {
		src := d.X.Data()[(s*c+1)*plane : (s*c+2)*plane]
		for i := range src {
			src[i] += 5
		}
	}
	stats := d.ComputeStats()
	if stats.Mean[1] < 4 {
		t.Fatalf("channel 1 mean %v", stats.Mean[1])
	}
	d.Normalize(stats)
	post := d.ComputeStats()
	for ch := 0; ch < 3; ch++ {
		if math.Abs(post.Mean[ch]) > 1e-4 {
			t.Fatalf("post-normalize mean[%d]=%v", ch, post.Mean[ch])
		}
		if math.Abs(post.Std[ch]-1) > 1e-3 {
			t.Fatalf("post-normalize std[%d]=%v", ch, post.Std[ch])
		}
	}
}

func TestNormalizeZeroStdChannel(t *testing.T) {
	x := tensor.New(2, 1, 2, 2)
	x.Fill(3)
	d := New(x, []int{0, 1})
	stats := d.ComputeStats()
	d.Normalize(stats) // must not divide by zero
	for _, v := range d.X.Data() {
		if v != 0 {
			t.Fatalf("constant channel should normalize to 0, got %v", v)
		}
	}
}

func TestBatchesCoverAllSamplesOnce(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := toyDataset(23, 1, rng)
	batches := d.Batches(8, tensor.NewRNG(5))
	if len(batches) != 3 {
		t.Fatalf("batch count %d", len(batches))
	}
	seen := make(map[int]int)
	for _, b := range batches {
		for _, i := range b {
			seen[i]++
		}
	}
	if len(seen) != 23 {
		t.Fatalf("coverage %d", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("sample %d appears %d times", i, c)
		}
	}
	// Last batch keeps the remainder.
	if len(batches[2]) != 7 {
		t.Fatalf("tail batch size %d", len(batches[2]))
	}
}

func TestBatchesUnshuffledOrdered(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := toyDataset(10, 1, rng)
	batches := d.Batches(4, nil)
	if batches[0][0] != 0 || batches[0][3] != 3 || batches[2][1] != 9 {
		t.Fatalf("unshuffled order wrong: %v", batches)
	}
}

func TestStratifiedKFoldProperties(t *testing.T) {
	// Property: every sample appears in exactly one validation fold; each
	// fold's class ratio approximates the global ratio.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 40
		labels := make([]int, n)
		rng := tensor.NewRNG(seed)
		for i := range labels {
			if rng.Float64() < 0.3 {
				labels[i] = 1
			}
		}
		k := 5
		folds := StratifiedKFold(labels, k, rng)
		seen := make(map[int]int)
		for _, f := range folds {
			for _, i := range f.Val {
				seen[i]++
			}
			// Train and Val must partition all samples.
			if len(f.Train)+len(f.Val) != n {
				return false
			}
		}
		if len(seen) != n {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStratifiedKFoldBalance(t *testing.T) {
	labels := make([]int, 100)
	for i := 50; i < 100; i++ {
		labels[i] = 1
	}
	folds := StratifiedKFold(labels, 5, tensor.NewRNG(6))
	for fi, f := range folds {
		pos := 0
		for _, i := range f.Val {
			pos += labels[i]
		}
		if pos != 10 || len(f.Val) != 20 {
			t.Fatalf("fold %d: %d positives of %d", fi, pos, len(f.Val))
		}
	}
}

func TestStratifiedKFoldDeterministic(t *testing.T) {
	labels := make([]int, 40)
	for i := range labels {
		labels[i] = i % 2
	}
	a := StratifiedKFold(labels, 4, tensor.NewRNG(7))
	b := StratifiedKFold(labels, 4, tensor.NewRNG(7))
	for f := range a {
		for i := range a[f].Val {
			if a[f].Val[i] != b[f].Val[i] {
				t.Fatal("k-fold not deterministic")
			}
		}
	}
}

func TestTrainTestSplit(t *testing.T) {
	labels := make([]int, 100)
	for i := 60; i < 100; i++ {
		labels[i] = 1
	}
	train, test := TrainTestSplit(labels, 0.2, tensor.NewRNG(8))
	if len(train)+len(test) != 100 {
		t.Fatalf("split sizes %d+%d", len(train), len(test))
	}
	pos := 0
	for _, i := range test {
		pos += labels[i]
	}
	if pos != 8 { // 20% of 40 positives
		t.Fatalf("test positives %d, want 8", pos)
	}
}

func TestKFoldPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StratifiedKFold([]int{0, 1}, 1, nil)
}

package pareto

import (
	"math"
	"testing"
	"testing/quick"

	"drainnas/internal/tensor"
)

var amm = []Direction{Maximize, Minimize, Minimize} // the paper's objectives

func pt(id int, vals ...float64) Point { return Point{ID: id, Values: vals} }

func TestDominatesBasics(t *testing.T) {
	a := pt(0, 0.96, 8.0, 11.0)  // better everywhere
	b := pt(1, 0.90, 30.0, 44.0) // worse everywhere
	if !Dominates(a, b, amm) {
		t.Fatal("a must dominate b")
	}
	if Dominates(b, a, amm) {
		t.Fatal("b must not dominate a")
	}
	// Equal points never dominate each other.
	if Dominates(a, a, amm) {
		t.Fatal("a point must not dominate itself")
	}
	// Trade-off points don't dominate.
	c := pt(2, 0.99, 40.0, 44.0)
	if Dominates(a, c, amm) || Dominates(c, a, amm) {
		t.Fatal("trade-off points must be mutually non-dominated")
	}
}

func TestDominatesEqualOnOneAxis(t *testing.T) {
	a := pt(0, 0.95, 8.0, 11.18)
	b := pt(1, 0.94, 8.0, 11.18)
	if !Dominates(a, b, amm) {
		t.Fatal("strictly better on one axis, equal elsewhere → dominates")
	}
}

func TestNonDominatedKnownFront(t *testing.T) {
	points := []Point{
		pt(0, 0.96, 8.2, 11.18),  // front
		pt(1, 0.95, 8.1, 11.18),  // front (faster)
		pt(2, 0.94, 8.5, 11.18),  // dominated by 0 and 1
		pt(3, 0.97, 30.0, 44.7),  // front (most accurate)
		pt(4, 0.90, 31.9, 44.71), // dominated by everything above
	}
	front := NonDominated(points, amm)
	want := map[int]bool{0: true, 1: true, 3: true}
	if len(front) != len(want) {
		t.Fatalf("front %v", front)
	}
	for _, i := range front {
		if !want[i] {
			t.Fatalf("unexpected front member %d", i)
		}
	}
}

func TestFrontsAgreeWithNaive(t *testing.T) {
	// Property: Fronts()[0] must equal NonDominated() on random point sets:
	// continuous ones, and for odd seeds coarse ones full of ties and
	// duplicates with a tenth of the values NaN, which makes dominance
	// intransitive.
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		val := func(scale float64) float64 {
			switch {
			case seed%2 == 0:
				return rng.Float64() * scale
			case rng.Uint64()%10 == 0:
				return math.NaN()
			}
			return float64(rng.Uint64() % 4)
		}
		n := 40
		points := make([]Point, n)
		for i := range points {
			points[i] = pt(i, val(1), val(100), val(50))
		}
		naive := NonDominated(points, amm)
		fronts := Fronts(points, amm)
		if len(fronts) == 0 {
			return len(naive) == 0
		}
		if len(fronts[0]) != len(naive) {
			return false
		}
		set := map[int]bool{}
		for _, i := range fronts[0] {
			set[i] = true
		}
		for _, i := range naive {
			if !set[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontsPartitionAllPoints(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 30
		points := make([]Point, n)
		for i := range points {
			points[i] = pt(i, rng.Float64(), rng.Float64())
		}
		fronts := Fronts(points, []Direction{Maximize, Minimize})
		seen := map[int]int{}
		for _, fr := range fronts {
			for _, i := range fr {
				seen[i]++
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontsLaterDominatedByEarlier(t *testing.T) {
	rng := tensor.NewRNG(17)
	points := make([]Point, 50)
	for i := range points {
		points[i] = pt(i, rng.Float64(), rng.Float64())
	}
	dirs := []Direction{Minimize, Minimize}
	fronts := Fronts(points, dirs)
	for fi := 1; fi < len(fronts); fi++ {
		for _, j := range fronts[fi] {
			dominated := false
			for _, i := range fronts[fi-1] {
				if Dominates(points[i], points[j], dirs) {
					dominated = true
					break
				}
			}
			if !dominated {
				t.Fatalf("front %d member %d not dominated by front %d", fi, j, fi-1)
			}
		}
	}
}

func TestCrowdingDistanceBoundariesInfinite(t *testing.T) {
	points := []Point{
		pt(0, 0.0, 10), pt(1, 0.25, 7), pt(2, 0.5, 5), pt(3, 1.0, 0),
	}
	front := []int{0, 1, 2, 3}
	d := CrowdingDistance(points, front)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[3], 1) {
		t.Fatalf("boundary distances %v", d)
	}
	if math.IsInf(d[1], 1) || math.IsInf(d[2], 1) || d[1] <= 0 || d[2] <= 0 {
		t.Fatalf("interior distances %v", d)
	}
}

func TestCrowdingDistanceSmallFronts(t *testing.T) {
	points := []Point{pt(0, 1, 2), pt(1, 3, 4)}
	d := CrowdingDistance(points, []int{0, 1})
	for _, v := range d {
		if !math.IsInf(v, 1) {
			t.Fatalf("fronts of ≤2 must be all-infinite: %v", d)
		}
	}
	if got := CrowdingDistance(points, nil); len(got) != 0 {
		t.Fatal("empty front must yield empty distances")
	}
}

func TestNormalizeRange(t *testing.T) {
	points := []Point{pt(0, 76.19, 8.13, 11.18), pt(1, 96.13, 249.56, 44.69), pt(2, 86.0, 100.0, 30.0)}
	norm := Normalize(points)
	for _, p := range norm {
		for _, v := range p.Values {
			if v < 0 || v > 1 {
				t.Fatalf("normalized value %v out of [0,1]", v)
			}
		}
	}
	if norm[0].Values[0] != 0 || norm[1].Values[0] != 1 {
		t.Fatalf("accuracy axis endpoints %v %v", norm[0].Values[0], norm[1].Values[0])
	}
	// IDs preserved.
	if norm[2].ID != 2 {
		t.Fatal("Normalize must preserve IDs")
	}
}

func TestNormalizeConstantObjective(t *testing.T) {
	points := []Point{pt(0, 5, 1), pt(1, 5, 2)}
	norm := Normalize(points)
	if norm[0].Values[0] != 0.5 || norm[1].Values[0] != 0.5 {
		t.Fatalf("constant objective should map to 0.5: %v", norm)
	}
}

func TestRangesMatchTable3Layout(t *testing.T) {
	points := []Point{
		pt(0, 76.19, 249.56, 44.69),
		pt(1, 96.13, 8.13, 11.18),
	}
	mins, maxs := Ranges(points)
	if mins[0] != 76.19 || maxs[0] != 96.13 {
		t.Fatalf("accuracy range [%v, %v]", mins[0], maxs[0])
	}
	if mins[1] != 8.13 || maxs[1] != 249.56 {
		t.Fatalf("latency range [%v, %v]", mins[1], maxs[1])
	}
	if mins[2] != 11.18 || maxs[2] != 44.69 {
		t.Fatalf("memory range [%v, %v]", mins[2], maxs[2])
	}
}

func TestSingleAndEmptySets(t *testing.T) {
	if got := NonDominated(nil, amm); len(got) != 0 {
		t.Fatal("empty set front must be empty")
	}
	one := []Point{pt(0, 1, 2, 3)}
	if got := NonDominated(one, amm); len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton front %v", got)
	}
	if got := Fronts(nil, amm); got != nil {
		t.Fatal("empty Fronts must be nil")
	}
	mins, maxs := Ranges(nil)
	if mins != nil || maxs != nil {
		t.Fatal("empty Ranges must be nil")
	}
}

func TestDominatesPanicsOnArityMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dominates(pt(0, 1), pt(1, 1, 2), []Direction{Minimize})
}

func TestDuplicatePointsBothOnFront(t *testing.T) {
	// Identical points do not dominate each other, so both stay.
	points := []Point{pt(0, 1, 2, 3), pt(1, 1, 2, 3)}
	front := NonDominated(points, amm)
	if len(front) != 2 {
		t.Fatalf("duplicate points front %v", front)
	}
}

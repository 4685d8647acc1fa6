package sim

import (
	"testing"
	"time"

	"drainnas/internal/route"
)

func TestScanWorkloadArrivals(t *testing.T) {
	s := ScanWorkload{
		Model: "paper", Class: route.ClassBatch,
		Tiles: 12, Window: 4, Pace: 2 * time.Millisecond,
		C: 5, S: 64,
	}
	arr, err := s.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != 12 {
		t.Fatalf("got %d arrivals, want 12", len(arr))
	}
	// The walk's first tile lands alone at t=0, the window one pace later;
	// each later tile is paced one slot on.
	if arr[0].At != 0 {
		t.Fatalf("arrival 0 at %v, want 0", arr[0].At)
	}
	for i := 1; i <= 4; i++ {
		if arr[i].At != 2*time.Millisecond {
			t.Fatalf("arrival %d at %v, want 2ms (inside the window after tile 0)", i, arr[i].At)
		}
	}
	for i := 5; i < 12; i++ {
		want := time.Duration(i-3) * 2 * time.Millisecond
		if arr[i].At != want {
			t.Fatalf("arrival %d at %v, want %v", i, arr[i].At, want)
		}
		if arr[i].At <= arr[i-1].At {
			t.Fatalf("arrivals not strictly paced at %d", i)
		}
	}
	// Window 1 is one tile per pace from the start.
	s1 := s
	s1.Window = 1
	arr1, err := s1.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arr1 {
		if want := time.Duration(i) * 2 * time.Millisecond; a.At != want {
			t.Fatalf("window 1: arrival %d at %v, want %v", i, a.At, want)
		}
	}
	for i, a := range arr {
		if a.Model != "paper" || a.Class != route.ClassBatch || a.C != 5 || a.H != 64 || a.W != 64 {
			t.Fatalf("arrival metadata %+v", a)
		}
		// As scan.Run marks its tiles: the first runs alone, the rest hold.
		if a.Hold != (i > 0) {
			t.Fatalf("arrival %d hold %v, want %v", i, a.Hold, i > 0)
		}
	}
	for i, a := range arr1 {
		if a.Hold {
			t.Fatalf("window 1: arrival %d holds with nothing behind it", i)
		}
	}
	// Determinism: same description, same stream.
	arr2, _ := s.Arrivals()
	for i := range arr {
		if arr[i] != arr2[i] {
			t.Fatalf("arrival %d differs across expansions", i)
		}
	}
}

func TestScanWorkloadValidation(t *testing.T) {
	if _, err := (ScanWorkload{Tiles: 0}).Arrivals(); err == nil {
		t.Fatal("want error for zero tiles")
	}
	if _, err := (ScanWorkload{Tiles: 4, Pace: -time.Millisecond}).Arrivals(); err == nil {
		t.Fatal("want error for negative pace")
	}
	// Window defaults apply: tile 0 alone, tiles 1..8 one pace later.
	arr, err := (ScanWorkload{Model: "m", Tiles: 10, Pace: time.Millisecond}).Arrivals()
	if err != nil || arr[0].At != 0 || arr[1].At != time.Millisecond || arr[8].At != time.Millisecond || arr[9].At != 2*time.Millisecond {
		t.Fatalf("default window: err=%v arr[0]=%v arr[1]=%v arr[8]=%v arr[9]=%v", err, arr[0].At, arr[1].At, arr[8].At, arr[9].At)
	}
}

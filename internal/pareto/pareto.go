// Package pareto implements multi-objective dominance analysis: dominance
// tests over mixed maximize/minimize objectives, naive and fast
// non-dominated sorting (the NSGA-II fronts), crowding distance, and
// per-objective normalization for the paper's Figure 3/4 visualizations.
package pareto

import (
	"fmt"
	"math"
	"sort"
)

// Direction states whether an objective is maximized or minimized.
type Direction int

// Objective directions.
const (
	Maximize Direction = iota
	Minimize
)

// Point is one candidate solution: an opaque ID plus its objective values.
type Point struct {
	ID     int
	Values []float64
}

// Dominates reports whether a dominates b: a is at least as good on every
// objective and strictly better on at least one.
func Dominates(a, b Point, dirs []Direction) bool {
	if len(a.Values) != len(dirs) || len(b.Values) != len(dirs) {
		panic(fmt.Sprintf("pareto: value/direction arity mismatch (%d, %d, %d)",
			len(a.Values), len(b.Values), len(dirs)))
	}
	strictlyBetter := false
	for i, d := range dirs {
		av, bv := a.Values[i], b.Values[i]
		switch d {
		case Maximize:
			if av < bv {
				return false
			}
			if av > bv {
				strictlyBetter = true
			}
		case Minimize:
			if av > bv {
				return false
			}
			if av < bv {
				strictlyBetter = true
			}
		default:
			panic(fmt.Sprintf("pareto: invalid direction %d", d))
		}
	}
	return strictlyBetter
}

// NonDominated returns the indices (into points) of the Pareto-optimal set,
// in ascending order. One pass culls: a point a kept point dominates is
// out, and kept points the new one dominates are dropped, so the kept set
// stays about the size of the front. Every culled point was seen
// dominated; each kept one is then checked against all points, because
// NaN objectives make dominance intransitive and a dropped point may have
// been a kept one's only dominator.
func NonDominated(points []Point, dirs []Direction) []int {
	var kept []int
next:
	for i := range points {
		for _, k := range kept {
			if Dominates(points[k], points[i], dirs) {
				continue next
			}
		}
		w := 0
		for _, k := range kept {
			if !Dominates(points[i], points[k], dirs) {
				kept[w] = k
				w++
			}
		}
		kept = append(kept[:w], i)
	}
	front := kept[:0]
	for _, i := range kept {
		dominated := false
		for j := range points {
			if i != j && Dominates(points[j], points[i], dirs) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}

// Fronts partitions all points into successive non-dominated fronts
// (front 0 is the Pareto set; front k+1 is the Pareto set after removing
// fronts 0..k), using the fast non-dominated sort of NSGA-II:
// O(n²) dominance checks but each pair compared once.
func Fronts(points []Point, dirs []Direction) [][]int {
	n := len(points)
	if n == 0 {
		return nil
	}
	dominatedBy := make([]int, n)    // count of points dominating i
	dominatesSet := make([][]int, n) // points i dominates
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case Dominates(points[i], points[j], dirs):
				dominatesSet[i] = append(dominatesSet[i], j)
				dominatedBy[j]++
			case Dominates(points[j], points[i], dirs):
				dominatesSet[j] = append(dominatesSet[j], i)
				dominatedBy[i]++
			}
		}
	}
	var fronts [][]int
	var current []int
	for i := 0; i < n; i++ {
		if dominatedBy[i] == 0 {
			current = append(current, i)
		}
	}
	for len(current) > 0 {
		fronts = append(fronts, current)
		var next []int
		for _, i := range current {
			for _, j := range dominatesSet[i] {
				dominatedBy[j]--
				if dominatedBy[j] == 0 {
					next = append(next, j)
				}
			}
		}
		current = next
	}
	return fronts
}

// CrowdingDistance computes the NSGA-II crowding distance of each member of
// a front (indices into points). Boundary points get +Inf. Larger distance
// means a less crowded, more diverse solution.
func CrowdingDistance(points []Point, front []int) []float64 {
	n := len(front)
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	if n <= 2 {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		return dist
	}
	m := len(points[front[0]].Values)
	order := make([]int, n) // positions into front
	for obj := 0; obj < m; obj++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return points[front[order[a]]].Values[obj] < points[front[order[b]]].Values[obj]
		})
		lo := points[front[order[0]]].Values[obj]
		hi := points[front[order[n-1]]].Values[obj]
		span := hi - lo
		dist[order[0]] = math.Inf(1)
		dist[order[n-1]] = math.Inf(1)
		if span == 0 {
			continue
		}
		for k := 1; k < n-1; k++ {
			gap := points[front[order[k+1]]].Values[obj] - points[front[order[k-1]]].Values[obj]
			dist[order[k]] += gap / span
		}
	}
	return dist
}

// Normalize rescales every objective to [0, 1] over the point set (min→0,
// max→1 regardless of direction), as the paper does before plotting the
// Figure 3 connections and the Figure 4 radar axes. Constant objectives map
// to 0.5.
func Normalize(points []Point) []Point {
	if len(points) == 0 {
		return nil
	}
	m := len(points[0].Values)
	lo := make([]float64, m)
	hi := make([]float64, m)
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for _, p := range points {
		for i, v := range p.Values {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	out := make([]Point, len(points))
	for pi, p := range points {
		vals := make([]float64, m)
		for i, v := range p.Values {
			span := hi[i] - lo[i]
			if span == 0 {
				vals[i] = 0.5
			} else {
				vals[i] = (v - lo[i]) / span
			}
		}
		out[pi] = Point{ID: p.ID, Values: vals}
	}
	return out
}

// Ranges returns each objective's (min, max) over the point set — the
// content of the paper's Table 3.
func Ranges(points []Point) (mins, maxs []float64) {
	if len(points) == 0 {
		return nil, nil
	}
	m := len(points[0].Values)
	mins = make([]float64, m)
	maxs = make([]float64, m)
	for i := range mins {
		mins[i] = math.Inf(1)
		maxs[i] = math.Inf(-1)
	}
	for _, p := range points {
		for i, v := range p.Values {
			if v < mins[i] {
				mins[i] = v
			}
			if v > maxs[i] {
				maxs[i] = v
			}
		}
	}
	return mins, maxs
}

package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"drainnas/internal/route"
	"drainnas/internal/tensor"
)

// Dist selects a client's interarrival distribution. Poisson (exponential
// interarrivals) is the memoryless default; Gamma and Weibull shape the
// coefficient of variation — sub-exponential (shape > 1) for paced clients,
// super-exponential (shape < 1) for bursty ones — the multi-client realism
// knob ServeGen-style workload generators expose.
type Dist int

// The supported interarrival distributions.
const (
	DistPoisson Dist = iota
	DistGamma
	DistWeibull
)

// String names the distribution as accepted by -dist.
func (d Dist) String() string {
	switch d {
	case DistGamma:
		return "gamma"
	case DistWeibull:
		return "weibull"
	default:
		return "poisson"
	}
}

// ParseDist maps the flag name to a distribution; empty means Poisson.
func ParseDist(s string) (Dist, error) {
	switch s {
	case "", "poisson":
		return DistPoisson, nil
	case "gamma":
		return DistGamma, nil
	case "weibull":
		return DistWeibull, nil
	default:
		return DistPoisson, fmt.Errorf("sim: unknown distribution %q (want poisson, gamma or weibull)", s)
	}
}

// Arrival is one simulated request: when it arrives and what it asks for.
// Model is the serving key (which may carry a precision suffix, "name@int8"
// — precision affinity is just a different key, exactly as in servd).
// Hold is serve.ExpectMore's mark: more of its batch group is on the way,
// so the replica's batcher does not cut the group at once on an idle slot.
type Arrival struct {
	At      time.Duration
	Model   string
	Class   route.SLOClass
	C, H, W int
	Hold    bool
}

// ModelShare is one entry of a client's model mix.
type ModelShare struct {
	Key    string
	Weight float64
}

// Client is one traffic class: an arrival process, an SLO class, and a
// model/precision mix. Requests from different clients interleave on the
// shared timeline.
type Client struct {
	Name    string
	RateRPS float64
	Dist    Dist
	// Shape is the Gamma/Weibull shape parameter (ignored for Poisson);
	// values <= 0 mean 1.
	Shape  float64
	Class  route.SLOClass
	Models []ModelShare
	// C, H, W is the chip shape the client submits (recorded in traces;
	// service time is per-model, so the shape is metadata here).
	C, H, W int
}

// Workload is a multi-client traffic description over a bounded horizon.
type Workload struct {
	Clients  []Client
	Duration time.Duration
	Seed     uint64
}

// Arrivals expands the workload into its deterministic arrival stream:
// each client draws interarrivals and model picks from its own seeded RNG
// stream (derived from the workload seed and the client's index and name),
// and the merged stream is totally ordered by (time, client index, per-
// client sequence) so equal-time arrivals have a stable order.
func (w Workload) Arrivals() ([]Arrival, error) {
	type keyed struct {
		a       Arrival
		ci, seq int
	}
	var all []keyed
	for ci, c := range w.Clients {
		if c.RateRPS <= 0 {
			return nil, fmt.Errorf("sim: client %q rate %.3f rps, want > 0", c.Name, c.RateRPS)
		}
		if len(c.Models) == 0 {
			return nil, fmt.Errorf("sim: client %q has no model mix", c.Name)
		}
		total := 0.0
		for _, m := range c.Models {
			if m.Weight < 0 {
				return nil, fmt.Errorf("sim: client %q model %q has negative weight", c.Name, m.Key)
			}
			total += m.Weight
		}
		if total <= 0 {
			return nil, fmt.Errorf("sim: client %q model mix sums to zero", c.Name)
		}
		rng := tensor.NewRNG(w.Seed ^ clientHash(c.Name, ci))
		t := time.Duration(0)
		for seq := 0; ; seq++ {
			t += c.interarrival(rng)
			if t > w.Duration {
				break
			}
			pick := rng.Float64() * total
			key := c.Models[len(c.Models)-1].Key
			for _, m := range c.Models {
				if pick < m.Weight {
					key = m.Key
					break
				}
				pick -= m.Weight
			}
			all = append(all, keyed{
				a:  Arrival{At: t, Model: key, Class: c.Class, C: c.C, H: c.H, W: c.W},
				ci: ci, seq: seq,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].a.At != all[j].a.At {
			return all[i].a.At < all[j].a.At
		}
		if all[i].ci != all[j].ci {
			return all[i].ci < all[j].ci
		}
		return all[i].seq < all[j].seq
	})
	out := make([]Arrival, len(all))
	for i, k := range all {
		out[i] = k.a
	}
	return out, nil
}

// clientHash mixes a client's name and index into a seed offset (FNV-1a
// over the name, salted by the index) so renaming or reordering clients
// changes their stream but nothing else does.
func clientHash(name string, index int) uint64 {
	h := uint64(0xcbf29ce484222325) ^ uint64(index)*0x9E3779B97F4A7C15
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001B3
	}
	return h
}

// interarrival draws the next gap for the client's process. All three
// distributions are parameterized to the client's mean rate, so changing
// Dist changes burstiness, not offered load.
func (c Client) interarrival(rng *tensor.RNG) time.Duration {
	mean := 1 / c.RateRPS // seconds
	shape := c.Shape
	if shape <= 0 {
		shape = 1
	}
	var x float64
	switch c.Dist {
	case DistGamma:
		// Gamma(k, θ) with kθ = mean.
		x = gammaSample(rng, shape) * (mean / shape)
	case DistWeibull:
		// Weibull(k, λ) with λΓ(1+1/k) = mean; inverse-CDF sampling.
		lambda := mean / math.Gamma(1+1/shape)
		x = lambda * math.Pow(expSample(rng), 1/shape)
	default:
		x = expSample(rng) * mean
	}
	if x <= 0 {
		x = 1e-9
	}
	return time.Duration(x * float64(time.Second))
}

// expSample draws a unit-mean exponential deviate, guarding the log against
// a zero uniform.
func expSample(rng *tensor.RNG) float64 {
	u := 1 - rng.Float64() // (0, 1]
	return -math.Log(u)
}

// gammaSample draws a unit-scale Gamma(k) deviate via Marsaglia–Tsang,
// with the k < 1 boost trick.
func gammaSample(rng *tensor.RNG, k float64) float64 {
	if k < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaSample(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

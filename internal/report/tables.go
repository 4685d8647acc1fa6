package report

import (
	"fmt"

	"drainnas/internal/core"
)

// Table3 renders the objective value ranges over all valid trials.
func Table3(res *core.Result) *Table {
	mins, maxs := res.ObjectiveRanges()
	t := NewTable("Table 3: objective value ranges",
		"", "Inference Accuracy", "Inference Latency", "Memory Usage")
	t.AddRow("Min", F(mins[0], 2)+" %", F(mins[1], 2)+" ms", F(mins[2], 2)+" MB")
	t.AddRow("Max", F(maxs[0], 2)+" %", F(maxs[1], 2)+" ms", F(maxs[2], 2)+" MB")
	return t
}

// trialColumns is the shared Table 4/5 row layout.
func trialRow(t core.Trial, withArch bool) []string {
	c := t.Config
	row := []string{
		I(c.Channels), I(c.Batch),
		F(t.Accuracy, 2), F(t.LatencyMS, 2), F(t.LatStdMS, 2), F(t.MemoryMB, 2),
	}
	if withArch {
		row = append(row,
			I(c.KernelSize), I(c.Stride), I(c.Padding), I(c.PoolChoice),
			I(c.KernelSizePool), I(c.StridePool), I(c.InitialOutputFeature))
	}
	return row
}

// Table4 renders the non-dominated solutions with their architecture
// parameters.
func Table4(res *core.Result) *Table {
	t := NewTable("Table 4: Pareto-optimal solutions",
		"channels", "batch", "accuracy", "latency(ms)", "lat_std", "memory(MB)",
		"kernel_size", "stride", "padding", "pool_choice",
		"kernel_size_pool", "stride_pool", "initial_output_feature")
	for _, trial := range res.NonDominated() {
		t.AddRow(trialRow(trial, true)...)
	}
	return t
}

// Table5 renders the six stock ResNet-18 benchmark variants.
func Table5(baselines []core.Trial) *Table {
	t := NewTable("Table 5: evaluation on six ResNet-18 benchmark variants",
		"channels", "batch", "accuracy", "latency (ms)", "lat_std", "memory (MB)")
	for _, trial := range baselines {
		t.AddRow(trialRow(trial, false)...)
	}
	return t
}

// Figure3Data emits the full scatter data behind Figure 3: one row per
// valid trial with its three objectives and front membership.
func Figure3Data(res *core.Result) *Table {
	onFront := make(map[int]bool, len(res.FrontIdx))
	for _, i := range res.FrontIdx {
		onFront[i] = true
	}
	t := NewTable("Figure 3: Pareto front analysis data",
		"trial", "accuracy", "latency_ms", "memory_mb", "non_dominated")
	for i, trial := range res.Trials {
		nd := "0"
		if onFront[i] {
			nd = "1"
		}
		t.AddRow(I(i), F(trial.Accuracy, 2), F(trial.LatencyMS, 2), F(trial.MemoryMB, 2), nd)
	}
	return t
}

// Figure3Scatter renders the two informative 2-D projections of the
// 3-objective scatter as ASCII plots (accuracy–latency and
// accuracy–memory), marking non-dominated points.
func Figure3Scatter(res *core.Result) string {
	onFront := make(map[int]bool, len(res.FrontIdx))
	for _, i := range res.FrontIdx {
		onFront[i] = true
	}
	accs := make([]float64, len(res.Trials))
	lats := make([]float64, len(res.Trials))
	mems := make([]float64, len(res.Trials))
	for i, t := range res.Trials {
		accs[i], lats[i], mems[i] = t.Accuracy, t.LatencyMS, t.MemoryMB
	}
	return Scatter("latency (y) vs accuracy (x); * = non-dominated", accs, lats, onFront, 72, 20) +
		Scatter("memory (y) vs accuracy (x); * = non-dominated", accs, mems, onFront, 72, 20)
}

// Figure4Radars builds the radar plot data of the non-dominated solutions:
// configuration axes plus objectives, all normalized to [0, 1] within their
// search-space or observed ranges, as the paper normalizes them.
func Figure4Radars(res *core.Result) []Radar {
	front := res.NonDominated()
	if len(front) == 0 {
		return nil
	}
	// Normalize objectives over the whole trial set (the paper normalizes
	// "within their respective ranges").
	mins, maxs := res.ObjectiveRanges()
	norm := func(v, lo, hi float64) float64 {
		if hi <= lo {
			return 0.5
		}
		return (v - lo) / (hi - lo)
	}
	var radars []Radar
	for _, t := range front {
		c := t.Config
		label := fmt.Sprintf("ch=%d batch=%d pool=%d", c.Channels, c.Batch, c.PoolChoice)
		radars = append(radars, Radar{
			Label: label,
			Axes: []RadarAxis{
				{Name: "accuracy", Value: norm(t.Accuracy, mins[0], maxs[0])},
				{Name: "latency", Value: norm(t.LatencyMS, mins[1], maxs[1])},
				{Name: "memory", Value: norm(t.MemoryMB, mins[2], maxs[2])},
				{Name: "kernel_size", Value: norm(float64(c.KernelSize), 3, 7)},
				{Name: "stride", Value: norm(float64(c.Stride), 1, 2)},
				{Name: "padding", Value: norm(float64(c.Padding), 1, 3)},
				{Name: "pool_choice", Value: float64(c.PoolChoice)},
				{Name: "kernel_size_pool", Value: norm(float64(c.KernelSizePool), 0, 3)},
				{Name: "stride_pool", Value: norm(float64(c.StridePool), 0, 2)},
				{Name: "init_output_feature", Value: norm(float64(c.InitialOutputFeature), 32, 64)},
				{Name: "channels", Value: norm(float64(c.Channels), 5, 7)},
				{Name: "batch", Value: norm(float64(c.Batch), 8, 32)},
			},
		})
	}
	return radars
}

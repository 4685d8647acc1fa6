package report

import (
	"strings"
	"testing"

	"drainnas/internal/core"
	"drainnas/internal/nas"
	"drainnas/internal/surrogate"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := NewTable("demo", "a", "long-header", "c")
	tb.AddRow("1", "2", "3")
	tb.AddRow("wide-cell", "x", "y")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Fatalf("title line %q", lines[0])
	}
	// Header and rows share column starts: 'long-header' col begins at the
	// same offset as '2' and 'x'.
	hIdx := strings.Index(lines[1], "long-header")
	if strings.Index(lines[3], "2") != hIdx || strings.Index(lines[4], "x") != hIdx {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("t", "a", "b").AddRow("only-one")
}

func TestCSVEscaping(t *testing.T) {
	tb := NewTable("", "name", "note")
	tb.AddRow("a,b", `say "hi"`)
	csv := tb.CSV()
	want := "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", csv, want)
	}
}

func TestScatterMarksHighlights(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1, 2, 3}
	s := Scatter("t", xs, ys, map[int]bool{3: true}, 20, 8)
	if !strings.Contains(s, "*") || !strings.Contains(s, ".") {
		t.Fatalf("scatter missing marks:\n%s", s)
	}
	// Degenerate single point must not panic.
	_ = Scatter("one", []float64{1}, []float64{1}, nil, 10, 4)
}

func TestRadarRenderBars(t *testing.T) {
	r := Radar{Label: "sol", Axes: []RadarAxis{{Name: "acc", Value: 1}, {Name: "lat", Value: 0}}}
	out := r.Render()
	if !strings.Contains(out, "####################") {
		t.Fatalf("full bar missing:\n%s", out)
	}
	if !strings.Contains(out, "acc") || !strings.Contains(out, "lat") {
		t.Fatalf("axis names missing:\n%s", out)
	}
}

func smallResult(t *testing.T) *core.Result {
	t.Helper()
	sp := nas.PaperSpace()
	sp.Paddings = []int{1}
	sp.InitialFeatures = []int{32, 64}
	res, err := core.Run(core.Options{
		Space:     sp,
		Combos:    []nas.InputCombo{{Channels: 5, Batch: 16}, {Channels: 7, Batch: 16}},
		Evaluator: nas.SurrogateEvaluator{Model: surrogate.Default()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPaperTablesRender(t *testing.T) {
	res := smallResult(t)
	t3 := Table3(res).Render()
	for _, want := range []string{"Min", "Max", "%", "ms", "MB"} {
		if !strings.Contains(t3, want) {
			t.Fatalf("Table3 missing %q:\n%s", want, t3)
		}
	}
	t4 := Table4(res)
	if len(t4.Rows) != len(res.FrontIdx) {
		t.Fatalf("Table4 rows %d, front %d", len(t4.Rows), len(res.FrontIdx))
	}
	if !strings.Contains(t4.Render(), "initial_output_feature") {
		t.Fatal("Table4 missing architecture columns")
	}

	baselines, err := core.Baselines(nil, nas.SurrogateEvaluator{Model: surrogate.Default()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t5 := Table5(baselines)
	if len(t5.Rows) != 6 {
		t.Fatalf("Table5 rows %d", len(t5.Rows))
	}
}

func TestFigureEmitters(t *testing.T) {
	res := smallResult(t)
	f3 := Figure3Data(res)
	if len(f3.Rows) != len(res.Trials) {
		t.Fatalf("Figure3 rows %d, trials %d", len(f3.Rows), len(res.Trials))
	}
	nd := 0
	for _, row := range f3.Rows {
		if row[4] == "1" {
			nd++
		}
	}
	if nd != len(res.FrontIdx) {
		t.Fatalf("Figure3 marks %d non-dominated, front has %d", nd, len(res.FrontIdx))
	}
	if s := Figure3Scatter(res); !strings.Contains(s, "*") {
		t.Fatal("Figure3 scatter has no front marks")
	}
	radars := Figure4Radars(res)
	if len(radars) != len(res.FrontIdx) {
		t.Fatalf("Figure4 radars %d", len(radars))
	}
	for _, r := range radars {
		if len(r.Axes) != 12 {
			t.Fatalf("radar axes %d, want 12", len(r.Axes))
		}
		for _, a := range r.Axes {
			if a.Value < 0 || a.Value > 1 {
				t.Fatalf("axis %s value %v out of [0,1]", a.Name, a.Value)
			}
		}
	}
}

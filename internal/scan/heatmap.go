package scan

import (
	"fmt"
	"strings"

	"drainnas/internal/api"
)

// HeatMap reassembles a scan's per-tile crossing scores into the W×H grid.
// It is fed from the ordered event stream (SetTile per tile event), so the
// same scan produces byte-identical renderings on every run. Not
// concurrency-safe; feed it from one goroutine, which the ordered stream
// gives you for free.
type HeatMap struct {
	W, H      int
	Threshold float64
	Score     []float64
	Known     []bool
	Failed    []bool
}

// NewHeatMap builds an empty heat map for a w×h grid.
func NewHeatMap(w, h int, threshold float64) *HeatMap {
	return &HeatMap{
		W: w, H: h, Threshold: threshold,
		Score:  make([]float64, w*h),
		Known:  make([]bool, w*h),
		Failed: make([]bool, w*h),
	}
}

// SetTile records one tile event.
func (m *HeatMap) SetTile(t api.ScanTile) {
	if t.X < 0 || t.X >= m.W || t.Y < 0 || t.Y >= m.H {
		return
	}
	i := t.Y*m.W + t.X
	m.Known[i] = true
	if t.Failed {
		m.Failed[i] = true
		return
	}
	m.Score[i] = t.Score
}

// Crossings counts cells whose score cleared the threshold.
func (m *HeatMap) Crossings() int {
	n := 0
	for i, s := range m.Score {
		if m.Known[i] && !m.Failed[i] && s >= m.Threshold {
			n++
		}
	}
	return n
}

// asciiRamp maps score deciles to glyphs, darkest last.
const asciiRamp = " .:-=+*#%@"

// ASCII renders the heat map one character per cell: the score decile for
// classified cells, '?' for tiles that exhausted their retries, '~' for
// cells the scan never reached (a canceled job's tail).
func (m *HeatMap) ASCII() string {
	var b strings.Builder
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			i := y*m.W + x
			switch {
			case !m.Known[i]:
				b.WriteByte('~')
			case m.Failed[i]:
				b.WriteByte('?')
			default:
				d := int(m.Score[i] * 10)
				if d > 9 {
					d = 9
				}
				if d < 0 {
					d = 0
				}
				b.WriteByte(asciiRamp[d])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PGM renders the heat map as a binary PGM (P5, maxval 255): score scaled
// to [0, 255], unknown and failed cells 0. The output is byte-identical
// across runs of the same scan.
func (m *HeatMap) PGM() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "P5\n%d %d\n255\n", m.W, m.H)
	out := []byte(b.String())
	for i, s := range m.Score {
		v := 0
		if m.Known[i] && !m.Failed[i] {
			v = int(s*255 + 0.5)
			if v > 255 {
				v = 255
			}
		}
		out = append(out, byte(v))
	}
	return out
}

// Summary is the exact-count report: detected crossings against the
// watershed's ground truth, plus coverage.
func (m *HeatMap) Summary(job api.ScanJob) string {
	return fmt.Sprintf(
		"scan %s: %s — %d/%d tiles classified (%d failed, %d retries), "+
			"crossings detected %d (threshold %.2f), ground truth %d, %.0f ms",
		job.ID, job.State, job.DoneTiles, job.TotalTiles, job.FailedTiles, job.Retries,
		m.Crossings(), m.Threshold, job.TruthCrossings, job.ElapsedMS)
}

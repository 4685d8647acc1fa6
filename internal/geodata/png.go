package geodata

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
)

// RenderMode selects what ChipPNG draws.
type RenderMode int

// Render modes.
const (
	// RenderRGB composes the natural-color orthophoto.
	RenderRGB RenderMode = iota
	// RenderDEM draws the hillshaded elevation band in grayscale.
	RenderDEM
	// RenderNDVI maps the vegetation index brown→green.
	RenderNDVI
	// RenderNDWI maps the water index tan→blue.
	RenderNDWI
	// RenderFalseColor composes NIR/RED/GREEN (the classic
	// vegetation-enhancing false-color composite).
	RenderFalseColor
)

// ChipPNG writes a chip band composition to w as a PNG, for visual
// inspection of the synthetic corpus (nascli datagen -png).
func ChipPNG(c Chip, mode RenderMode, w io.Writer) error {
	img := image.NewRGBA(image.Rect(0, 0, c.Size, c.Size))
	n := c.Size * c.Size
	to8 := func(v float32) uint8 {
		f := float64(v)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		return uint8(f*254 + 0.5)
	}
	for i := 0; i < n; i++ {
		var col color.RGBA
		col.A = 255
		switch mode {
		case RenderRGB:
			col.R = to8(c.Band(BandRed)[i] * 2.2) // gain for display
			col.G = to8(c.Band(BandGreen)[i] * 2.2)
			col.B = to8(c.Band(BandBlue)[i] * 2.2)
		case RenderDEM:
			g := to8(c.Band(BandDEM)[i])
			col.R, col.G, col.B = g, g, g
		case RenderNDVI:
			// -1 → brown, +1 → green.
			v := (c.Band(BandNDVI)[i] + 1) / 2
			col.R = to8(0.55 * (1 - v))
			col.G = to8(0.2 + 0.7*v)
			col.B = to8(0.15 * (1 - v))
		case RenderNDWI:
			v := (c.Band(BandNDWI)[i] + 1) / 2
			col.R = to8(0.6 * (1 - v))
			col.G = to8(0.5*(1-v) + 0.3*v)
			col.B = to8(0.2 + 0.75*v)
		case RenderFalseColor:
			col.R = to8(c.Band(BandNIR)[i] * 1.6)
			col.G = to8(c.Band(BandRed)[i] * 2.2)
			col.B = to8(c.Band(BandGreen)[i] * 2.2)
		default:
			return fmt.Errorf("geodata: unknown render mode %d", mode)
		}
		img.SetRGBA(i%c.Size, i/c.Size, col)
	}
	return png.Encode(w, img)
}

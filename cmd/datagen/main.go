// Command datagen synthesizes the drainage-crossing corpus and prints its
// Table 1 inventory plus per-band statistics. With -full it generates the
// paper's full 12,068 chips; the default scale produces a miniature corpus
// with the same structure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"drainnas/internal/geodata"
)

func main() {
	var (
		chipSize = flag.Int("size", 64, "chip side length in pixels")
		scale    = flag.Int("scale", 50, "divide Table 1 counts by this factor")
		full     = flag.Bool("full", false, "generate the full 12,068-chip corpus (overrides -scale)")
		seed     = flag.Uint64("seed", 1, "generation seed")
		stats    = flag.Bool("stats", false, "print per-band statistics of a sample chip")
		pngDir   = flag.String("png", "", "write sample chip PNGs (RGB/DEM/NDVI/NDWI/false-color) to this directory")
	)
	flag.Parse()

	if *full {
		*scale = 1
	}
	fmt.Printf("Generating corpus: chip %dx%d px, scale 1/%d, seed %d\n\n",
		*chipSize, *chipSize, *scale, *seed)
	corpus := geodata.GenerateCorpus(geodata.CorpusOptions{
		ChipSize: *chipSize, Scale: *scale, Seed: *seed,
	})
	fmt.Println(corpus.Table1())
	fmt.Printf("balance: %.1f%% positive\n", 100*corpus.Balance())

	if *stats {
		if len(corpus.Chips) == 0 {
			fmt.Fprintln(os.Stderr, "datagen: empty corpus")
			os.Exit(1)
		}
		chip := corpus.Chips[0]
		fmt.Printf("\nSample chip (%s, label %d) band statistics:\n", chip.Region, chip.Label)
		for b := 0; b < geodata.NumBands; b++ {
			mean, std := chip.Stats(b)
			fmt.Printf("  %-6s mean %+.3f  std %.3f\n", geodata.BandNames[b], mean, std)
		}
	}

	if *pngDir != "" {
		if err := writeSamplePNGs(corpus, *pngDir); err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("\nPaper Table 1 totals: %d chips across %d regions (reproduced at scale 1/%d)\n",
		geodata.TotalSamples(), len(geodata.StudyRegions), *scale)
}

// writeSamplePNGs renders the first positive and first negative chip in
// every available mode.
func writeSamplePNGs(corpus *geodata.Corpus, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	modes := map[string]geodata.RenderMode{
		"rgb": geodata.RenderRGB, "dem": geodata.RenderDEM,
		"ndvi": geodata.RenderNDVI, "ndwi": geodata.RenderNDWI,
		"falsecolor": geodata.RenderFalseColor,
	}
	wrote := 0
	for _, label := range []int{1, 0} {
		for _, chip := range corpus.Chips {
			if chip.Label != label {
				continue
			}
			for name, mode := range modes {
				path := filepath.Join(dir, fmt.Sprintf("chip_label%d_%s.png", label, name))
				f, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := geodata.ChipPNG(chip, mode, f); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
				wrote++
			}
			break
		}
	}
	fmt.Printf("wrote %d sample PNGs to %s\n", wrote, dir)
	return nil
}

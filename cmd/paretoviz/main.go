// Command paretoviz runs the full pipeline (1,717 valid trials with the
// surrogate backend) and regenerates the paper's result tables and figures:
// Table 3 (objective ranges), Table 4 (non-dominated solutions), Table 5
// (stock ResNet-18 variants), Figure 3 (scatter + front) and Figure 4
// (radar data). Individual artifacts can be selected with flags; the
// default prints everything.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"drainnas/internal/core"
	"drainnas/internal/nas"
	"drainnas/internal/pareto"
	"drainnas/internal/report"
	"drainnas/internal/surrogate"
)

func main() {
	var (
		table3  = flag.Bool("table3", false, "print only Table 3")
		table4  = flag.Bool("table4", false, "print only Table 4")
		table5  = flag.Bool("table5", false, "print only Table 5")
		figure3 = flag.Bool("figure3", false, "print only Figure 3 (ASCII scatter)")
		figure4 = flag.Bool("figure4", false, "print only Figure 4 (radar data)")
		quality = flag.Bool("quality", false, "print only front-quality indicators (hypervolume, knee point, energy front)")
		csvPath = flag.String("csv", "", "also write Figure 3 data as CSV to this file")
		workers = flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
	)
	flag.Parse()
	all := !(*table3 || *table4 || *table5 || *figure3 || *figure4 || *quality)

	eval := nas.SurrogateEvaluator{Model: surrogate.Default()}
	res, err := core.Run(core.Options{
		Evaluator:         eval,
		Workers:           *workers,
		SimulateAttrition: true,
	})
	if err != nil {
		log.Fatalf("paretoviz: %v", err)
	}
	fmt.Printf("pipeline: %d raw trials, %d valid outcomes, %d non-dominated\n\n",
		res.RawTrials, len(res.Trials), len(res.FrontIdx))

	if all || *table3 {
		fmt.Println(report.Table3(res).Render())
	}
	if all || *table4 {
		fmt.Println(report.Table4(res).Render())
	}
	if all || *table5 {
		baselines, err := core.Baselines(nil, eval, 0)
		if err != nil {
			log.Fatalf("paretoviz: %v", err)
		}
		fmt.Println(report.Table5(baselines).Render())
		front := res.NonDominated()
		flags := core.DominatesBaseline(front, baselines, 1.5)
		wins := 0
		for _, ok := range flags {
			if ok {
				wins++
			}
		}
		fmt.Printf("%d/%d non-dominated models beat their stock baseline on latency+memory at comparable accuracy\n\n",
			wins, len(front))
	}
	if all || *figure3 {
		fmt.Println(report.Figure3Scatter(res))
	}
	if all || *figure4 {
		for _, r := range report.Figure4Radars(res) {
			fmt.Println(r.Render())
		}
	}
	if all || *quality {
		pts := res.Points()
		ref := pareto.ReferenceFromWorst(pts, core.Objectives, 0.05)
		var frontPts []pareto.Point
		for _, i := range res.FrontIdx {
			frontPts = append(frontPts, pts[i])
		}
		hv := pareto.Hypervolume(frontPts, core.Objectives, ref)
		knee := pareto.KneePoint(pts, res.FrontIdx, core.Objectives)
		fmt.Printf("front quality: hypervolume %.1f (ref at worst+5%%)\n", hv)
		if knee >= 0 {
			kt := res.Trials[knee]
			fmt.Printf("knee point: acc %.2f%%  lat %.2f ms  mem %.2f MB  (%s)\n",
				kt.Accuracy, kt.LatencyMS, kt.MemoryMB, kt.Config.Key())
		}
		front4 := res.NonDominatedWithEnergy()
		fmt.Printf("energy-extended (4-objective) front: %d members; energy range on 3-obj front: ", len(front4))
		loE, hiE := res.Trials[res.FrontIdx[0]].EnergyMJ, res.Trials[res.FrontIdx[0]].EnergyMJ
		for _, i := range res.FrontIdx {
			e := res.Trials[i].EnergyMJ
			if e < loE {
				loE = e
			}
			if e > hiE {
				hiE = e
			}
		}
		fmt.Printf("%.1f-%.1f mJ\n\n", loE, hiE)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(report.Figure3Data(res).CSV()), 0o666); err != nil {
			log.Fatalf("paretoviz: %v", err)
		}
		fmt.Printf("Figure 3 data written to %s\n", *csvPath)
	}
}

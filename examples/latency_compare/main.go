// Latency comparison: decomposes the paper's best non-dominated model and
// the stock ResNet-18 into their execution kernels and compares predicted
// latency per device and per kernel — the analysis behind Table 4's
// latency column and the lat_std spread.
//
//	go run ./examples/latency_compare
package main

import (
	"fmt"
	"log"

	"drainnas/internal/latmeter"
	"drainnas/internal/resnet"
)

func main() {
	stock := resnet.StockResNet18(7, 16)
	// The paper's top non-dominated solution (Table 4, row 1 family):
	// 3x3 stride-2 stem, no pooling, width 32.
	lean := resnet.Config{
		Channels: 7, Batch: 16,
		KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 0, InitialOutputFeature: 32, NumClasses: 2,
	}

	fmt.Println("== per-device latency ==")
	fmt.Printf("%-14s %14s %14s %8s\n", "device", "stock (ms)", "lean (ms)", "speedup")
	pStock, err := latmeter.Predict(stock, 0)
	if err != nil {
		log.Fatal(err)
	}
	pLean, err := latmeter.Predict(lean, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i, d := range latmeter.Devices() {
		s, l := pStock.PerDevice[i], pLean.PerDevice[i]
		fmt.Printf("%-14s %14.2f %14.2f %7.2fx\n", d.Name, s, l, s/l)
	}
	fmt.Printf("%-14s %14.2f %14.2f %7.2fx\n", "mean", pStock.MeanMS, pLean.MeanMS, pStock.MeanMS/pLean.MeanMS)
	fmt.Printf("%-14s %14.2f %14.2f\n\n", "std", pStock.StdMS, pLean.StdMS)

	gS, _ := latmeter.Decompose(stock, latmeter.DefaultInputSize)
	gL, _ := latmeter.Decompose(lean, latmeter.DefaultInputSize)
	fmt.Printf("== model cost summary ==\n")
	fmt.Printf("%-8s %10s %12s %12s\n", "model", "kernels", "GFLOPs", "MB moved")
	fmt.Printf("%-8s %10d %12.3f %12.1f\n", "stock", len(gS.Kernels), gS.TotalFLOPs()/1e9, gS.TotalBytes()/1e6)
	fmt.Printf("%-8s %10d %12.3f %12.1f\n\n", "lean", len(gL.Kernels), gL.TotalFLOPs()/1e9, gL.TotalBytes()/1e6)

	fmt.Println("== per-kernel breakdown on cortexA76cpu (stock) ==")
	names, lats, err := latmeter.Breakdown(stock, 0, "cortexA76cpu")
	if err != nil {
		log.Fatal(err)
	}
	printTop(names, lats, 8)

	fmt.Println("\n== per-kernel breakdown on cortexA76cpu (lean) ==")
	names, lats, err = latmeter.Breakdown(lean, 0, "cortexA76cpu")
	if err != nil {
		log.Fatal(err)
	}
	printTop(names, lats, 8)
}

// printTop lists the most expensive kernels with their share of the total.
func printTop(names []string, lats []float64, k int) {
	total := 0.0
	for _, l := range lats {
		total += l
	}
	type kv struct {
		name string
		ms   float64
	}
	rows := make([]kv, len(names))
	for i := range names {
		rows[i] = kv{names[i], lats[i]}
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].ms > rows[i].ms {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	if k > len(rows) {
		k = len(rows)
	}
	for _, r := range rows[:k] {
		fmt.Printf("  %-46s %8.3f ms  (%4.1f%%)\n", r.name, r.ms, 100*r.ms/total)
	}
	fmt.Printf("  total: %.2f ms\n", total)
}

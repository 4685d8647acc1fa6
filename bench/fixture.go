package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"drainnas/internal/infer"
	"drainnas/internal/latmeter"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/serve"
	"drainnas/internal/tensor"
)

// The two deployed models. front32 is the shape of Table 4's non-dominated
// solutions; stock64 is the paper's stock ResNet-18 baseline.
var (
	front32 = resnet.Config{
		Channels: 5, Batch: 16, KernelSize: 3, Stride: 2, Padding: 1,
		PoolChoice: 1, KernelSizePool: 3, StridePool: 2,
		InitialOutputFeature: 32, NumClasses: 2,
	}
	stock64 = resnet.StockResNet18(5, 16)
)

const (
	// weightSeed fixes the exported weights: -seed varies the inputs the
	// programs under test see, never the programs' own artefacts.
	weightSeed = 7
	// chipSide is the paper's deployment input size.
	chipSide = latmeter.DefaultInputSize
	chipPool = 16
)

// exportModel writes cfg as <dir>/<name>.dnnx with fixed weights.
func exportModel(dir, name string, cfg resnet.Config) error {
	m, err := resnet.New(cfg, tensor.NewRNG(weightSeed))
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".dnnx"))
	if err != nil {
		return err
	}
	// Export writes value by value; unbuffered that is a syscall each.
	w := bufio.NewWriterSize(f, 1<<20)
	if _, err := onnxsize.Export(m, w); err != nil {
		f.Close()
		return fmt.Errorf("bench: exporting %s: %w", name, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chip is one seeded 5×100×100 input: the tensor the reference forward
// runs on, and its values encoded once as the JSON array every request
// body carrying this chip shares.
type chip struct {
	x    *tensor.Tensor
	json []byte
}

// makeChips draws the seeded chip pool.
func makeChips(seed uint64) ([]chip, error) {
	rng := tensor.NewRNG(seed)
	chips := make([]chip, chipPool)
	for i := range chips {
		x := tensor.RandNormal(rng, 1, 1, front32.Channels, chipSide, chipSide)
		data, err := json.Marshal(x.Data())
		if err != nil {
			return nil, err
		}
		chips[i] = chip{x: x, json: data}
	}
	return chips, nil
}

// variant is one way of asking for a prediction: which model at which
// precision, on behalf of which tenant (whose SLO class rides in the body).
type variant struct {
	model, precision string
	tenant           tenantDef
	head             string // the request body up to the data array
}

func newVariant(model, precision string, tn tenantDef) variant {
	return variant{model: model, precision: precision, tenant: tn,
		head: fmt.Sprintf(`{"model":%q,"precision":%q,"slo":%q,"shape":[%d,%d,%d],"data":`,
			model, precision, tn.slo, front32.Channels, chipSide, chipSide)}
}

func (v variant) key() string { return infer.ModelKey(v.model, infer.Precision(v.precision)) }

// body returns the pre-encoded request body of chip c asked for as v, and
// its length. Nothing is marshalled here: the generator spends no CPU on
// JSON while the clock runs.
func (v variant) body(c chip) (io.Reader, int64) {
	return io.MultiReader(strings.NewReader(v.head), bytes.NewReader(c.json), strings.NewReader("}")),
		int64(len(v.head) + len(c.json) + 1)
}

// tenantDef is one entry of the key file the router's tenant tier loads.
type tenantDef struct {
	name, key, slo string
	weight         float64
}

var (
	tenantSurvey = tenantDef{name: "survey", key: "survey-bench-key", slo: "interactive", weight: 3}
	tenantBulk   = tenantDef{name: "bulk", key: "bulk-bench-key", slo: "batch", weight: 1}
)

func writeKeyFile(path string, tenants ...tenantDef) error {
	type entry struct {
		Name   string  `json:"name"`
		Key    string  `json:"key"`
		Weight float64 `json:"weight"`
	}
	var doc struct {
		Tenants []entry `json:"tenants"`
	}
	for _, t := range tenants {
		doc.Tenants = append(doc.Tenants, entry{t.name, t.key, t.weight})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}

// references holds, per serving key and chip, the logits infer.Plan.Forward
// gives on the very container and loader the server uses.
type references struct {
	logits map[string][][]float32
	plans  map[string]*infer.Plan
	// loadPlan and quantize time the front32 load and its int8
	// quantisation; both are also inside setup_s.
	loadPlan, quantize time.Duration
}

func computeReferences(modelDir string, keys []string, chips []chip) (*references, error) {
	refs := &references{logits: make(map[string][][]float32, len(keys)), plans: make(map[string]*infer.Plan, len(keys))}
	load := serve.DirLoader(modelDir)
	for _, key := range keys {
		t0 := time.Now()
		plan, err := load(key)
		if err != nil {
			return nil, fmt.Errorf("bench: loading reference plan %s: %w", key, err)
		}
		switch key {
		case "front32":
			refs.loadPlan = time.Since(t0)
		case "front32@int8":
			refs.quantize = time.Since(t0) - refs.loadPlan
		}
		out := make([][]float32, len(chips))
		for i, c := range chips {
			y, err := plan.Forward(c.x)
			if err != nil {
				return nil, fmt.Errorf("bench: reference forward %s: %w", key, err)
			}
			out[i] = append([]float32(nil), y.Data()...)
		}
		refs.logits[key], refs.plans[key] = out, plan
	}
	return refs, nil
}

// logitTolerance is the training ≡ interpreter ≡ plan agreement bound the
// repository pins (README "within 1e-4"); a served answer is the same plan
// on the same chip, so it must meet it however the batcher grouped it.
const logitTolerance = 1e-4

func logitsMatch(got, want []float32) bool {
	if len(got) != len(want) || len(want) == 0 {
		return false
	}
	for i := range want {
		d := math.Abs(float64(got[i]) - float64(want[i]))
		if math.IsNaN(d) || d > logitTolerance*math.Max(1, math.Abs(float64(want[i]))) {
			return false
		}
	}
	return true
}

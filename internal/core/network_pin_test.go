package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"reflect"
	"strings"
	"testing"

	"drainnas/internal/latmeter"
	"drainnas/internal/nas"
	"drainnas/internal/onnxsize"
	"drainnas/internal/resnet"
	"drainnas/internal/tensor"
)

// networkPin is what the config side of the pipeline said about the
// paper's search space at the commit before the network got a single
// description (resnet.Config.Layers): the digests were captured there and
// every later lowering has to reproduce them byte for byte.
const networkPin = "testdata/network.pin"

// stratifiedSample crosses every stem kernel, stride, pool off / 2x2 / 3x3
// and two widths at 5 and 7 channels — one model per distinct stem and
// shortcut shape, small enough to build and export each.
func stratifiedSample() []resnet.Config {
	return nas.UniqueConfigs(nas.Space{
		KernelSizes: []int{3, 5, 7}, Strides: []int{1, 2}, Paddings: []int{1},
		PoolChoices: []int{0, 1}, KernelSizePools: []int{2, 3}, StridePools: []int{2},
		InitialFeatures: []int{8, 32}, NumClasses: 2,
	}.EnumerateAll([]nas.InputCombo{{Channels: 5, Batch: 8}, {Channels: 7, Batch: 8}}))
}

// describeConfig renders everything the surrogate sweep derives from one
// configuration without building it: the kernel list (or the error) at the
// paper's chip size and at one that collapses, the export size, and the
// spatial check over a ladder of input sizes.
func describeConfig(w hash.Hash, cfg resnet.Config) {
	fmt.Fprintf(w, "%s\n", cfg.Key())
	for _, size := range []int{latmeter.DefaultInputSize, 6} {
		g, err := latmeter.Decompose(cfg, size)
		fmt.Fprintf(w, " decompose@%d: %+v %v\n", size, g, err)
	}
	n, err := onnxsize.SizeBytes(cfg)
	fmt.Fprintf(w, " size: %d %v\n", n, err)
	for _, size := range []int{latmeter.DefaultInputSize, 32, 6, 2, 1} {
		s, err := cfg.CheckSpatial(size)
		fmt.Fprintf(w, " spatial@%d: %d %v\n", size, s, err)
	}
}

func TestNetworkDescriptionPin(t *testing.T) {
	var got bytes.Buffer
	space := nas.PaperSpace()
	for _, combo := range nas.PaperInputCombos() {
		h := sha256.New()
		configs := space.Enumerate(combo)
		for _, cfg := range configs {
			describeConfig(h, cfg)
		}
		fmt.Fprintf(&got, "ch%d_b%d %d configs %x\n", combo.Channels, combo.Batch, len(configs), h.Sum(nil))
	}

	for _, cfg := range stratifiedSample() {
		spec, err := onnxsize.BuildGraphSpec(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		n, err := onnxsize.Encode(spec, h)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s encode %d bytes %x\n", cfg.Key(), n, h.Sum(nil))

		// The exporter's learnable initializers are the built model's
		// parameters: same names, same shapes, same order.
		m, err := resnet.New(cfg, tensor.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		var built, exported []string
		for _, p := range m.Params() {
			built = append(built, fmt.Sprint(p.Name, p.Data.Shape()))
		}
		for _, init := range spec.Initializers {
			if !strings.HasSuffix(init.Name, ".running_mean") && !strings.HasSuffix(init.Name, ".running_var") {
				exported = append(exported, fmt.Sprint(init.Name, init.Dims))
			}
		}
		if !reflect.DeepEqual(built, exported) {
			t.Errorf("%s: resnet.New parameters and BuildGraphSpec initializers differ\nbuilt:    %v\nexported: %v", cfg.Key(), built, exported)
		}
	}

	want, err := os.ReadFile(networkPin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s differs from the captured description\n--- got\n%s--- want\n%s", networkPin, got.Bytes(), want)
	}
}

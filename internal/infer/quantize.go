package infer

import (
	"fmt"

	"drainnas/internal/geodata"
	"drainnas/internal/metrics"
	"drainnas/internal/tensor"
)

// Post-training quantization pass: Plan.Quantize derives an int8 form of a
// compiled float plan. Weights quantize per output channel from the
// BN-folded values the PackedConvs already hold (PackedConv.Quantize);
// activation scales come from calibration — running representative inputs
// through the float plan and reading each arena value's max-abs afterwards.
// The quantized plan is a *Plan like any other (same Session machinery, same
// CostGraph), just with integer op payloads and a latency cost scale.

// Quantize returns the int8 form of the plan, calibrating activation ranges
// on the given (N, C, H, W) sample batches. The receiver is unchanged. The
// two plans share only the classifier's float PackedConv: each int8 conv
// keeps its int8 weights and nothing of the float conv it was quantized
// from, so the float plan, with the packs its calibration forwards built,
// is collectable once the caller drops it. Requirements: at least one
// calibration batch with the plan's channel count, and the exporter's head
// shape — a global pool (where dequantization happens) optionally followed
// by the classifier Gemm, which stays fp32. Everything Compile accepts
// today satisfies the topology requirement.
func (p *Plan) Quantize(calib []*tensor.Tensor) (*Plan, error) {
	if p.Precision() != PrecisionFP32 {
		return nil, fmt.Errorf("infer: plan %s is already %s", p.name, p.precision)
	}
	if len(calib) == 0 {
		return nil, fmt.Errorf("infer: quantization needs at least one calibration batch")
	}

	// Calibration is the ordinary float forward over arenas that recycle
	// nothing, so every intermediate value is still there to measure when
	// the pass returns.
	sess := p.NewSession()
	sess.keepValues = true
	maxAbs := make([]float32, p.numVals)
	for i, x := range calib {
		if x == nil {
			return nil, fmt.Errorf("infer: calibration batch %d is nil", i)
		}
		if _, err := sess.Forward(x); err != nil {
			return nil, fmt.Errorf("infer: calibration batch %d: %w", i, err)
		}
		ar := sess.arenas[arenaKey{n: x.Dim(0), h: x.Dim(2), w: x.Dim(3)}]
		maxAbs[0] = max(maxAbs[0], tensor.MaxAbs(x.Data()))
		for v := 1; v < p.numVals; v++ {
			maxAbs[v] = max(maxAbs[v], tensor.MaxAbs(ar.vals[v].Data()))
		}
	}

	scale := make([]float32, p.numVals)
	for v := range scale {
		scale[v] = tensor.ActScale(maxAbs[v])
	}
	// ReLU and MaxPool pass s8 values through untouched, so their outputs
	// keep the input's scale exactly rather than a separately observed one.
	for idx := range p.ops {
		op := &p.ops[idx]
		if op.kind == opRelu || op.kind == opMaxPool {
			scale[op.out] = scale[op.in]
		}
	}

	q := &Plan{
		name: p.name, inC: p.inC,
		numVals: p.numVals, outVal: p.outVal,
		lastUse:   append([]int(nil), p.lastUse...),
		ops:       make([]planOp, len(p.ops)),
		precision: PrecisionInt8,
		inScale:   scale[0],
	}
	// The backbone quantizes; the head stays float. The global pool
	// dequantizes its int32 plane sums directly (no extra rounding step) and
	// the classifier FC runs as the float PackedConv it already is — it is a
	// vanishing fraction of the compute, and keeping it fp32 removes the two
	// quantization stages that sit right on the logits.
	floatVal := make([]bool, p.numVals)
	for idx, op := range p.ops {
		if op.in2 >= 0 && floatVal[op.in2] {
			return nil, fmt.Errorf("infer: op %s mixes float and int8 operands", op.name)
		}
		nop := op
		switch op.kind {
		case opConv:
			if floatVal[op.in] {
				return nil, fmt.Errorf("infer: conv %s after the dequantizing head is unsupported in int8 plans", op.name)
			}
			if op.out == p.outVal {
				return nil, fmt.Errorf("infer: terminal conv %s cannot dequantize", op.name)
			}
			nop.qconv, nop.conv = op.conv.Quantize(scale[op.in], scale[op.out]), nil
		case opFC:
			if op.out != p.outVal {
				return nil, fmt.Errorf("infer: non-terminal FC %s unsupported in int8 plans", op.name)
			}
			if !floatVal[op.in] {
				return nil, fmt.Errorf("infer: FC %s reads an int8 value; expected the dequantized pool output", op.name)
			}
		case opAdd:
			nop.ra = scale[op.in] / scale[op.out]
			nop.rb = scale[op.in2] / scale[op.out]
		case opGlobalAvgPool:
			if floatVal[op.in] {
				return nil, fmt.Errorf("infer: pool %s after the dequantizing head is unsupported in int8 plans", op.name)
			}
			// Dequantizing op: ratio carries the input activation scale.
			nop.ratio = scale[op.in]
			floatVal[op.out] = true
		default:
			if floatVal[op.in] {
				return nil, fmt.Errorf("infer: op %s after the dequantizing head is unsupported in int8 plans", op.name)
			}
		}
		if op.kind == opFC {
			floatVal[op.out] = true
		}
		q.ops[idx] = nop
	}
	metrics.Infer.PlanCompiled()
	return q, nil
}

// SyntheticCalibration builds a deterministic calibration set for a model
// with the given input geometry. For the paper's channel counts it draws
// a miniature geodata corpus (one chip per class per study region, the
// terrain statistics real inputs have); other channel counts fall back to
// unit-normal noise.
func SyntheticCalibration(channels, size int, seed uint64) []*tensor.Tensor {
	if channels == 5 || channels == 7 {
		c := geodata.GenerateCorpus(geodata.CorpusOptions{ChipSize: size, Scale: 1 << 20, Seed: seed})
		x, _ := c.Tensors(channels)
		return []*tensor.Tensor{x}
	}
	rng := tensor.NewRNG(seed)
	batches := make([]*tensor.Tensor, 0, 4)
	for i := 0; i < 4; i++ {
		batches = append(batches, tensor.RandNormal(rng, 1.0, 2, channels, size, size))
	}
	return batches
}

// QuantizeSynthetic quantizes the plan calibrated on SyntheticCalibration
// samples of the given input size — the serving tier's one-call path from a
// loaded float container to its int8 form.
func (p *Plan) QuantizeSynthetic(inputSize int) (*Plan, error) {
	if inputSize <= 0 {
		return nil, fmt.Errorf("infer: quantization input size %d", inputSize)
	}
	return p.Quantize(SyntheticCalibration(p.inC, inputSize, 0x5eed))
}

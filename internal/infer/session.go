package infer

import (
	"fmt"

	"drainnas/internal/metrics"
	"drainnas/internal/tensor"
)

// maxArenaElems bounds any single activation tensor a session will allocate,
// guarding against adversarial containers whose huge padding or channel
// attributes would otherwise explode intermediate shapes.
const maxArenaElems = 1 << 28

// Session is one plan executor: it owns the per-shape activation arenas a
// forward pass writes into, so the steady state allocates nothing. Sessions
// are cheap (arenas build lazily per input shape) but NOT safe for
// concurrent use — give each goroutine its own, all sharing one Plan.
type Session struct {
	plan   *Plan
	arenas map[arenaKey]*arena
	// staged holds, per batch shape, the input slab RunBatch stacks a group
	// of chips into: keyed like the arenas, and like them built on first
	// sight of a shape and kept, so a steady-state batch stages into memory
	// it already owns instead of a fresh zeroed tensor per call.
	staged map[arenaKey]*tensor.Tensor
	// keepValues builds arenas that recycle nothing (calibration sessions).
	keepValues bool
}

type arenaKey struct{ n, h, w int }

// arena holds the preallocated activation tensors for one (N, H, W) input
// shape. Buffers are reused across values via compile-time liveness: a
// value's backing slab is recycled for later outputs once its last reader
// has run, with each op's output allocated before its inputs are freed so an
// output never aliases an input.
type arena struct {
	vals []*tensor.Tensor // per value id; vals[0] stays nil (caller input)
	// 4-D views over the FC input/output buffers, prebuilt so the pointwise
	// conv path needs no per-call reshaping. Indexed by op position.
	fcIn  []*tensor.Tensor
	fcOut []*tensor.Tensor

	// Int8-plan state: s8 activation slabs per value id (the same liveness
	// recycling as vals), their shapes, and the quantized form of the
	// caller's input. The terminal float value still lives in vals.
	qvals [][]int8
	qdims [][]int
	qin   []int8
}

// NewSession creates an executor for the plan.
func (p *Plan) NewSession() *Session {
	metrics.Infer.SessionCreated()
	return &Session{plan: p, arenas: make(map[arenaKey]*arena), staged: make(map[arenaKey]*tensor.Tensor)}
}

// staging returns the session's (n, C, h, w) input slab for the batch
// shape. Its contents are whatever the last batch left; the caller
// overwrites all of it.
func (s *Session) staging(key arenaKey) *tensor.Tensor {
	x := s.staged[key]
	if x == nil {
		x = tensor.New(key.n, s.plan.inC, key.h, key.w)
		s.staged[key] = x
	}
	return x
}

// Plan returns the plan this session executes.
func (s *Session) Plan() *Plan { return s.plan }

// Forward executes the plan on an (N, C, H, W) input. The returned
// (N, classes) logits tensor is owned by the session's arena: it stays valid
// until the session's next Forward call. Callers that need the logits past
// that point must copy them (Plan.Forward does).
func (s *Session) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.NDim() != 4 {
		return nil, fmt.Errorf("infer: input must be (N,C,H,W), got %v", x.Shape())
	}
	if x.Dim(1) != s.plan.inC {
		return nil, fmt.Errorf("infer: input has %d channels, model wants %d", x.Dim(1), s.plan.inC)
	}
	key := arenaKey{n: x.Dim(0), h: x.Dim(2), w: x.Dim(3)}
	ar := s.arenas[key]
	if ar == nil {
		var err error
		ar, err = s.plan.buildArena(key, !s.keepValues)
		if err != nil {
			return nil, err
		}
		s.arenas[key] = ar
		metrics.Infer.ArenaMiss()
	} else {
		metrics.Infer.ArenaHit()
	}

	p := s.plan
	if p.Precision() == PrecisionInt8 {
		return p.forwardQuantized(x, ar)
	}
	for idx := range p.ops {
		op := &p.ops[idx]
		in := ar.vals[op.in]
		if op.in == 0 {
			in = x
		}
		out := ar.vals[op.out]
		switch op.kind {
		case opConv:
			op.conv.ForwardInto(out, in)
		case opRelu:
			tensor.ReLUInto(out, in)
		case opMaxPool:
			tensor.MaxPool2DInto(out, in, op.kernel, op.stride, op.pad)
		case opAdd:
			in2 := ar.vals[op.in2]
			if op.in2 == 0 {
				in2 = x
			}
			if op.relu {
				tensor.AddReLUInto(out, in, in2)
			} else {
				tensor.AddInto(out, in, in2)
			}
		case opGlobalAvgPool:
			tensor.GlobalAvgPool2DInto(out, in)
		case opFC:
			op.conv.ForwardInto(ar.fcOut[idx], ar.fcIn[idx])
		}
	}
	return ar.vals[p.outVal], nil
}

// Classify runs Forward and returns the argmax class per sample.
func (s *Session) Classify(x *tensor.Tensor) ([]int, error) {
	logits, err := s.Forward(x)
	if err != nil {
		return nil, err
	}
	return tensor.ArgMaxRows(logits), nil
}

// shapes infers every value's shape for an (n, inC, h, w) input, indexed by
// value id. It is the plan's only shape inference — arenas, calibration and
// the cost graph all read it — and all spatial validation lives here: once
// it succeeds, executing the ops on that input shape cannot fail.
func (p *Plan) shapes(n, h, w int) ([][]int, error) {
	if n <= 0 || h <= 0 || w <= 0 {
		return nil, fmt.Errorf("infer: input shape [%d %d %d %d] has non-positive dims", n, p.inC, h, w)
	}
	shapes := make([][]int, p.numVals)
	shapes[0] = []int{n, p.inC, h, w}
	for idx := range p.ops {
		op := &p.ops[idx]
		in := shapes[op.in]
		var out []int
		switch op.kind {
		case opConv:
			oh, ow := op.conv.OutSize(in[2], in[3])
			if oh <= 0 || ow <= 0 {
				return nil, fmt.Errorf("infer: input %dx%d too small for conv %s", h, w, op.name)
			}
			out = []int{in[0], op.conv.OutChannels(), oh, ow}
		case opRelu:
			out = in
		case opMaxPool:
			oh := tensor.ConvOut(in[2], op.kernel, op.stride, op.pad)
			ow := tensor.ConvOut(in[3], op.kernel, op.stride, op.pad)
			if oh <= 0 || ow <= 0 {
				return nil, fmt.Errorf("infer: input %dx%d too small for pool %s", h, w, op.name)
			}
			out = []int{in[0], in[1], oh, ow}
		case opAdd:
			in2 := shapes[op.in2]
			if len(in) != len(in2) {
				return nil, fmt.Errorf("infer: Add %s rank mismatch %v vs %v", op.name, in, in2)
			}
			for d := range in {
				if in[d] != in2[d] {
					return nil, fmt.Errorf("infer: Add %s shape mismatch %v vs %v", op.name, in, in2)
				}
			}
			out = in
		case opGlobalAvgPool:
			out = []int{in[0], in[1]}
		case opFC:
			out = []int{in[0], op.conv.OutChannels()}
		}
		if numel(out) < 0 {
			return nil, fmt.Errorf("infer: op %s output shape %v exceeds the arena bound", op.name, out)
		}
		shapes[op.out] = out
	}
	return shapes, nil
}

// numel is the element count of a shape, or -1 once it passes maxArenaElems
// (so a hostile shape cannot overflow the product).
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
		if n <= 0 || n > maxArenaElems {
			return -1
		}
	}
	return n
}

// slabs is the free list activation buffers are drawn from and returned
// to; the smallest slab that fits wins.
type slabs[T float32 | int8] struct{ free [][]T }

func (s *slabs[T]) get(numel int) []T {
	best := -1
	for i, sl := range s.free {
		if cap(sl) >= numel && (best < 0 || cap(s.free[best]) > cap(sl)) {
			best = i
		}
	}
	if best < 0 {
		return make([]T, numel)
	}
	sl := s.free[best][:numel]
	last := len(s.free) - 1
	s.free[best] = s.free[last]
	s.free = s.free[:last]
	return sl
}

func (s *slabs[T]) put(sl []T) { s.free = append(s.free, sl) }

// buildArena preallocates every activation for one input shape. This is the
// only allocating step of the compiled path; it runs once per (session,
// input shape). An fp32 plan's values are all float tensors; an int8 plan
// keeps s8 slabs up to the dequantizing head (global pool and FC), whose
// outputs are float. Without recycle every value keeps a slab of its own,
// so calibration can read them all after the pass.
func (p *Plan) buildArena(key arenaKey, recycle bool) (*arena, error) {
	shapes, err := p.shapes(key.n, key.h, key.w)
	if err != nil {
		return nil, err
	}
	ar := &arena{
		vals:  make([]*tensor.Tensor, p.numVals),
		fcIn:  make([]*tensor.Tensor, len(p.ops)),
		fcOut: make([]*tensor.Tensor, len(p.ops)),
	}
	quantized := p.Precision() == PrecisionInt8
	if quantized {
		ar.qvals = make([][]int8, p.numVals)
		ar.qdims = shapes
		ar.qin = make([]int8, key.n*p.inC*key.h*key.w)
	}
	var freeF slabs[float32]
	var freeQ slabs[int8]
	for idx := range p.ops {
		op := &p.ops[idx]
		in, out := shapes[op.in], shapes[op.out]
		if quantized && op.kind != opGlobalAvgPool && op.kind != opFC {
			ar.qvals[op.out] = freeQ.get(numel(out))
		} else {
			ar.vals[op.out] = tensor.FromSlice(freeF.get(numel(out)), out...)
		}
		if op.kind == opFC {
			// op.in is never value 0 here: Compile requires a rank-2 input,
			// and the caller input is rank 4.
			ar.fcIn[idx] = tensor.FromSlice(ar.vals[op.in].Data(), in[0], in[1], 1, 1)
			ar.fcOut[idx] = tensor.FromSlice(ar.vals[op.out].Data(), out[0], out[1], 1, 1)
		}
		// Recycle the slabs of values this op read for the last time.
		for i, v := range [2]int{op.in, op.in2} {
			if !recycle || v <= 0 || v == op.out || p.lastUse[v] != idx || (i == 1 && v == op.in) {
				continue
			}
			if quantized && ar.qvals[v] != nil {
				freeQ.put(ar.qvals[v])
			} else {
				freeF.put(ar.vals[v].Data())
			}
		}
	}
	return ar, nil
}

// forwardQuantized executes an int8 plan: quantize the caller's input once,
// run the integer op list over the s8 arena, and return the float logits the
// terminal op dequantized into.
func (p *Plan) forwardQuantized(x *tensor.Tensor, ar *arena) (*tensor.Tensor, error) {
	tensor.QuantizeInto(ar.qin, x.Data(), p.inScale)
	for idx := range p.ops {
		op := &p.ops[idx]
		ins := ar.qdims[op.in]
		in := ar.qvals[op.in]
		if op.in == 0 {
			in = ar.qin
		}
		switch op.kind {
		case opConv:
			op.qconv.ForwardInto(ar.qvals[op.out], nil, in, ins[0], ins[2], ins[3])
		case opRelu:
			tensor.QReLUInto(ar.qvals[op.out], in)
		case opMaxPool:
			tensor.QMaxPool2DInto(ar.qvals[op.out], in, ins[0], ins[1], ins[2], ins[3], op.kernel, op.stride, op.pad)
		case opAdd:
			in2 := ar.qvals[op.in2]
			if op.in2 == 0 {
				in2 = ar.qin
			}
			tensor.QAddInto(ar.qvals[op.out], in, in2, op.ra, op.rb, op.relu)
		case opGlobalAvgPool:
			tensor.QGlobalAvgPoolFloatInto(ar.vals[op.out].Data(), in, ins[0], ins[1], ins[2], ins[3], op.ratio)
		case opFC:
			// The float classifier head, exactly as in the fp32 path.
			op.conv.ForwardInto(ar.fcOut[idx], ar.fcIn[idx])
		}
	}
	return ar.vals[p.outVal], nil
}

// Package infer is the deployment-side inference runtime: it loads a model
// container exported by onnxsize (graph description + trained weights) and
// executes it on CPU with no dependency on the training stack — the role a
// TFLite/OpenVINO runtime plays on the paper's resource-limited devices.
//
// # Architecture: Plan and Session
//
// Containers are compiled, not interpreted. Compile (or LoadPlan) lowers the
// node list once into an explicit op sequence: residual topology is resolved
// at compile time instead of re-sniffed from node names per call, every
// BatchNormalization folds into the preceding convolution's weights and
// bias, trailing ReLUs fuse into conv and residual-join epilogues, and each
// weight becomes a tensor.PackedConv whose GEMM panels pack once and persist
// (the fully-connected head runs as a pointwise convolution, so its weight
// is never transposed at call time).
//
//   - Plan is immutable and shared: one per model, safe for any number of
//     goroutines.
//   - Session is the per-goroutine executor: it owns shape-keyed activation
//     arenas, so a steady-state Forward allocates nothing and returns
//     arena-owned logits (valid until that session's next Forward).
package infer

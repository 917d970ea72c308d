// Dense circuit synthesis.
//
// Circuit execution lives in the exec subsystem: qs::Backend and its
// StateVectorBackend / DensityMatrixBackend / TrajectoryBackend
// implementations, driven directly or through ExecutionSession (see
// docs/ARCHITECTURE.md). This header only builds a circuit's full-space
// unitary from StateVectorBackend::apply.
#ifndef QS_CIRCUIT_EXECUTOR_H
#define QS_CIRCUIT_EXECUTOR_H

#include "circuit/circuit.h"
#include "linalg/matrix.h"

namespace qs {

/// Builds the full-space unitary of a circuit (for small spaces only;
/// dimension is validated against `max_dim` to catch accidents).
Matrix circuit_unitary(const Circuit& circuit, std::size_t max_dim = 4096);

}  // namespace qs

#endif  // QS_CIRCUIT_EXECUTOR_H

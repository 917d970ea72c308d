// Exact pure-state execution backend.
#ifndef QS_EXEC_STATE_VECTOR_BACKEND_H
#define QS_EXEC_STATE_VECTOR_BACKEND_H

#include "exec/backend.h"
#include "qudit/state_vector.h"

namespace qs {

/// Noiseless state-vector simulation: the final state is exact, and shots
/// (when requested) are multinomial samples from it.
class StateVectorBackend final : public Backend {
 public:
  StateVectorBackend() = default;

  std::string name() const override { return "statevector"; }
  bool is_noisy() const override { return false; }
  ExecutionResult execute(const ExecutionRequest& request) const override;

  /// Stateful primitive: applies every gate of `circuit` to `psi` in
  /// order. Used by circuit_unitary, and the gate-by-gate reference
  /// that compiled plans are pinned to.
  static void apply(const Circuit& circuit, StateVector& psi);
};

}  // namespace qs

#endif  // QS_EXEC_STATE_VECTOR_BACKEND_H

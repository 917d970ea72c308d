#include "circuit/executor.h"

#include "common/require.h"
#include "exec/state_vector_backend.h"
#include "linalg/matrix.h"

namespace qs {

Matrix circuit_unitary(const Circuit& circuit, std::size_t max_dim) {
  const std::size_t n = circuit.space().dimension();
  require(n <= max_dim,
          "circuit_unitary: space too large for dense construction");
  // Column j of the unitary is the circuit applied to basis state |j>.
  Matrix u(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<cplx> col(n, cplx{0.0, 0.0});
    col[j] = 1.0;
    StateVector psi(circuit.space(), std::move(col));
    StateVectorBackend::apply(circuit, psi);
    for (std::size_t i = 0; i < n; ++i) u(i, j) = psi.amplitude(i);
  }
  return u;
}

}  // namespace qs

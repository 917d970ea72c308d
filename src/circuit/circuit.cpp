#include "circuit/circuit.h"

#include <algorithm>
#include <sstream>

#include "common/fingerprint.h"
#include "common/require.h"

namespace qs {

std::shared_ptr<const ParamGenerator> make_dense_generator(
    std::uint64_t tag, std::function<Matrix(double)> dense) {
  require(static_cast<bool>(dense), "make_dense_generator: empty callable");
  auto gen = std::make_shared<ParamGenerator>();
  gen->tag = tag;
  gen->dense = std::move(dense);
  return gen;
}

std::shared_ptr<const ParamGenerator> make_diagonal_generator(
    std::uint64_t tag, std::function<std::vector<cplx>(double)> diagonal) {
  require(static_cast<bool>(diagonal),
          "make_diagonal_generator: empty callable");
  auto gen = std::make_shared<ParamGenerator>();
  gen->tag = tag;
  gen->diagonal = std::move(diagonal);
  return gen;
}

void Circuit::check_sites(const std::vector<int>& sites,
                          std::size_t block) const {
  require(!sites.empty(), "Circuit: gate needs at least one site");
  std::size_t expect = 1;
  std::vector<bool> used(space_.num_sites(), false);
  for (int s : sites) {
    require(s >= 0 && static_cast<std::size_t>(s) < space_.num_sites(),
            "Circuit: site index out of range");
    require(!used[static_cast<std::size_t>(s)], "Circuit: duplicate site");
    used[static_cast<std::size_t>(s)] = true;
    expect *= static_cast<std::size_t>(space_.dim(static_cast<std::size_t>(s)));
  }
  require(expect == block,
          "Circuit: operator dimension does not match target sites");
}

void Circuit::add(std::string name, Matrix u, std::vector<int> sites,
                  double duration) {
  require(u.is_square(), "Circuit::add: operator must be square");
  check_sites(sites, u.rows());
  Operation op;
  op.name = std::move(name);
  op.matrix = std::move(u);
  op.sites = std::move(sites);
  op.duration = duration;
  ops_.push_back(std::move(op));
  structural_digest_.set(0);
}

void Circuit::add_diagonal(std::string name, std::vector<cplx> diag,
                           std::vector<int> sites, double duration) {
  check_sites(sites, diag.size());
  Operation op;
  op.name = std::move(name);
  op.diag = std::move(diag);
  op.sites = std::move(sites);
  op.duration = duration;
  op.diagonal = true;
  ops_.push_back(std::move(op));
  structural_digest_.set(0);
}

void Circuit::add_parametric(std::string name,
                             std::shared_ptr<const ParamGenerator> generator,
                             ParamExpr expr, std::vector<int> sites,
                             double duration) {
  require(generator != nullptr, "Circuit::add_parametric: null generator");
  require(expr.valid(), "Circuit::add_parametric: parameter index >= 0 "
                        "required");
  require(static_cast<bool>(generator->dense) !=
              static_cast<bool>(generator->diagonal),
          "Circuit::add_parametric: generator must define exactly one of "
          "dense/diagonal");
  Operation op;
  op.name = std::move(name);
  op.sites = std::move(sites);
  op.duration = duration;
  op.param = expr;
  op.generator = std::move(generator);
  // Placeholder payload at params = 0; never executed (execution paths
  // require a binding), but keeps the circuit valid for structure-only
  // consumers (depth, routing, scheduling, fingerprints).
  if (op.generator->diagonal) {
    op.diagonal = true;
    op.diag = op.generator->diagonal(expr.offset);
    check_sites(op.sites, op.diag.size());
  } else {
    op.matrix = op.generator->dense(expr.offset);
    require(op.matrix.is_square(),
            "Circuit::add_parametric: generator payload must be square");
    check_sites(op.sites, op.matrix.rows());
  }
  ops_.push_back(std::move(op));
  structural_digest_.set(0);
  const std::size_t need = static_cast<std::size_t>(expr.index) + 1;
  if (need > num_parameters_) num_parameters_ = need;
}

void Circuit::add_operation(Operation op) {
  check_sites(op.sites, op.block_dim());
  require(op.noise_multiplicity >= 1,
          "Circuit::add_operation: multiplicity >= 1 required");
  if (op.parametric()) {
    require(op.generator != nullptr,
            "Circuit::add_operation: parametric operation without a "
            "generator");
    const std::size_t need = static_cast<std::size_t>(op.param.index) + 1;
    if (need > num_parameters_) num_parameters_ = need;
  }
  ops_.push_back(std::move(op));
  structural_digest_.set(0);
}

void Circuit::set_last_noise_multiplicity(int multiplicity) {
  require(!ops_.empty(), "set_last_noise_multiplicity: empty circuit");
  require(multiplicity >= 1,
          "set_last_noise_multiplicity: multiplicity >= 1 required");
  ops_.back().noise_multiplicity = multiplicity;
  structural_digest_.set(0);
}

void Circuit::append(const Circuit& other) {
  require(space_ == other.space_, "Circuit::append: space mismatch");
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  structural_digest_.set(0);
  if (other.num_parameters_ > num_parameters_)
    num_parameters_ = other.num_parameters_;
  // Mixing operations from two circuits invalidates any "bound with this
  // exact vector" claim; consumers must re-bind.
  if (other.parametric()) parameter_values_.clear();
}

Circuit Circuit::bind(const std::vector<double>& params) const {
  require(params.size() == num_parameters_,
          "Circuit::bind: expected " + std::to_string(num_parameters_) +
              " parameter(s), got " + std::to_string(params.size()));
  // The copy keeps the memoized structural digest: binding rewrites
  // only parametric payloads, which that digest does not read.
  Circuit bound(*this);
  for (Operation& op : bound.ops_) {
    if (!op.parametric()) continue;
    const double angle = op.param.evaluate(params);
    if (op.diagonal)
      op.diag = op.generator->diagonal(angle);
    else
      op.matrix = op.generator->dense(angle);
  }
  bound.parameter_values_ = params;
  return bound;
}

Circuit Circuit::inverse() const {
  // A generator's adjoint family is not derivable in general, so the
  // inverse of a symbolic circuit is undefined; a bound circuit inverts
  // its materialized payloads (the result is plain, not parametric).
  require(!parametric() || !parameter_values_.empty(),
          "Circuit::inverse: unbound parametric circuit; bind() it first");
  Circuit inv(space_);
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    if (it->diagonal) {
      std::vector<cplx> conj_diag(it->diag.size());
      for (std::size_t i = 0; i < it->diag.size(); ++i)
        conj_diag[i] = std::conj(it->diag[i]);
      inv.add_diagonal(it->name + "^dag", std::move(conj_diag), it->sites,
                       it->duration);
    } else {
      inv.add(it->name + "^dag", it->matrix.adjoint(), it->sites,
              it->duration);
    }
    inv.set_last_noise_multiplicity(it->noise_multiplicity);
  }
  return inv;
}

std::size_t Circuit::depth() const {
  // Greedy ASAP layering: each site tracks the first layer at which it is
  // free; a gate occupies max over its sites.
  std::vector<std::size_t> free_at(space_.num_sites(), 0);
  std::size_t depth = 0;
  for (const Operation& op : ops_) {
    std::size_t layer = 0;
    for (int s : op.sites)
      layer = std::max(layer, free_at[static_cast<std::size_t>(s)]);
    for (int s : op.sites) free_at[static_cast<std::size_t>(s)] = layer + 1;
    depth = std::max(depth, layer + 1);
  }
  return depth;
}

GateStats Circuit::stats() const {
  GateStats st;
  st.total = ops_.size();
  for (const Operation& op : ops_) {
    if (op.sites.size() == 1)
      ++st.single_site;
    else if (op.sites.size() == 2)
      ++st.two_site;
    else
      ++st.multi_site;
    ++st.by_name[op.name];
  }
  return st;
}

double Circuit::total_duration() const {
  double t = 0.0;
  for (const Operation& op : ops_) t += op.duration;
  return t;
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  os << "Circuit over " << space_.to_string() << ", " << ops_.size()
     << " ops, depth " << depth() << "\n";
  for (const Operation& op : ops_) {
    os << "  " << op.name << " @ [";
    for (std::size_t i = 0; i < op.sites.size(); ++i) {
      if (i > 0) os << ",";
      os << op.sites[i];
    }
    os << "]";
    if (op.duration > 0.0) os << "  (" << op.duration * 1e6 << " us)";
    os << "\n";
  }
  return os.str();
}

namespace {

/// Shared digest walk behind fingerprint() and structural_fingerprint().
/// The two differ only on parametric operations: the structural walk
/// skips their materialized payload bits (every binding digests alike),
/// while the value walk folds payload AND parameter slot (two bindings
/// differ; a bound op never aliases a plain op with the same matrix).
/// Non-parametric operations hash identically in both walks, so the
/// digests coincide on circuits without parameters.
std::uint64_t digest_circuit(const Circuit& circuit, bool structural) {
  std::uint64_t h = fnv::kOffset;
  const QuditSpace& space = circuit.space();
  h = fnv::u64(space.num_sites(), h);
  for (std::size_t s = 0; s < space.num_sites(); ++s)
    h = fnv::u64(static_cast<std::uint64_t>(space.dim(s)), h);
  for (const Operation& op : circuit.operations()) {
    // Length-prefix the variable-length name so records cannot alias by
    // re-partitioning bytes across field boundaries.
    h = fnv::u64(op.name.size(), h);
    h = fnv::bytes(op.name.data(), op.name.size(), h);
    h = fnv::u64(op.diagonal ? 1 : 0, h);
    h = fnv::u64(op.sites.size(), h);
    for (int s : op.sites) h = fnv::u64(static_cast<std::uint64_t>(s), h);
    h = fnv::f64(op.duration, h);
    h = fnv::u64(static_cast<std::uint64_t>(op.noise_multiplicity), h);
    if (op.parametric()) {
      h = fnv::param_slot(static_cast<std::uint64_t>(op.param.index),
                          op.param.scale, op.param.offset,
                          op.generator->tag, h);
      if (structural) continue;  // payload bits are bound values
    } else {
      h = fnv::u64(0, h);  // no-parameter marker (see fnv::param_slot)
    }
    if (op.diagonal)
      h = fnv::cplx_span(op.diag.data(), op.diag.size(), h);
    else
      h = fnv::cplx_span(op.matrix.data(),
                         op.matrix.rows() * op.matrix.cols(), h);
  }
  return h;
}

}  // namespace

std::uint64_t fingerprint(const Circuit& circuit) {
  return digest_circuit(circuit, /*structural=*/false);
}

std::uint64_t structural_fingerprint(const Circuit& circuit) {
  std::uint64_t digest = circuit.structural_digest_.get();
  if (digest == 0) {
    digest = digest_circuit(circuit, /*structural=*/true);
    circuit.structural_digest_.set(digest);
  }
  return digest;
}

}  // namespace qs

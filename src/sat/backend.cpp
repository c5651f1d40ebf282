#include "sat/backend.hpp"

namespace cbq::sat {

namespace {

/// One assumption-only query mapped onto the Holds/Fails/Unknown scale
/// with Sat meaning `satVerdict`.
Verdict querySat(SatBackend& backend, std::span<const aig::Lit> assumptions,
                 std::int64_t budget, Verdict satVerdict,
                 Verdict unsatVerdict) {
  switch (backend.solve(assumptions, budget)) {
    case Status::Sat:
      return satVerdict;
    case Status::Unsat:
      return unsatVerdict;
    case Status::Undef:
      break;
  }
  return Verdict::Unknown;
}

}  // namespace

Verdict checkEquiv(SatBackend& backend, aig::Lit a, aig::Lit b,
                   std::int64_t budget) {
  if (a == b) return Verdict::Holds;
  if (a == !b) return Verdict::Fails;
  {
    const aig::Lit assumptions[] = {a, !b};
    const Verdict v = querySat(backend, assumptions, budget, Verdict::Fails,
                               Verdict::Holds);
    if (v != Verdict::Holds) return v;
  }
  const aig::Lit assumptions[] = {!a, b};
  return querySat(backend, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

Verdict checkImplies(SatBackend& backend, aig::Lit a, aig::Lit b,
                     std::int64_t budget) {
  if (a == b || a.isFalse() || b.isTrue()) return Verdict::Holds;
  const aig::Lit assumptions[] = {a, !b};
  return querySat(backend, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

Verdict checkConstant(SatBackend& backend, aig::Lit a, bool value,
                      std::int64_t budget) {
  if (a.isConstant())
    return a.isTrue() == value ? Verdict::Holds : Verdict::Fails;
  const aig::Lit assumptions[] = {a ^ value};
  return querySat(backend, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

Verdict checkSat(SatBackend& backend, aig::Lit f, std::int64_t budget) {
  if (f.isTrue()) return Verdict::Holds;
  if (f.isFalse()) return Verdict::Fails;
  const aig::Lit assumptions[] = {f};
  return querySat(backend, assumptions, budget, Verdict::Holds,
                  Verdict::Fails);
}

Verdict checkEquivUnderCare(SatBackend& backend, aig::Lit notRef, aig::Lit a,
                            aig::Lit b, std::int64_t budget) {
  if (a == b) return Verdict::Holds;
  {
    const aig::Lit assumptions[] = {notRef, a, !b};
    const Verdict v = querySat(backend, assumptions, budget, Verdict::Fails,
                               Verdict::Holds);
    if (v != Verdict::Holds) return v;
  }
  const aig::Lit assumptions[] = {notRef, !a, b};
  return querySat(backend, assumptions, budget, Verdict::Fails,
                  Verdict::Holds);
}

}  // namespace cbq::sat

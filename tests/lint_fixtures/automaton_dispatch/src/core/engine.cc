// Fixture: must FIRE automaton-dispatch — a predictor engine writing
// its own switch over AutomatonKind instead of calling
// core::visitAutomaton. Every such copy is a twin that drifts.
#include "core/automaton.hh"

namespace fixture
{

using tlat::core::AutomatonKind;

int
stateCount(AutomatonKind kind)
{
    switch (kind) {
      case AutomatonKind::LastTime:
        return 2;
      default:
        return 4;
    }
}

} // namespace fixture

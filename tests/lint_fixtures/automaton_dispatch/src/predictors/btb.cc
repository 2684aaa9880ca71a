// Fixture: must FIRE automaton-dispatch — the namespace-qualified
// spelling is the same twin and must not slip through.
#include "core/automaton.hh"

namespace fixture
{

bool
isLastTime(tlat::core::AutomatonKind kind)
{
    switch (kind) {
      case tlat::core::AutomatonKind::LastTime:
        return true;
      default:
        return false;
    }
}

} // namespace fixture

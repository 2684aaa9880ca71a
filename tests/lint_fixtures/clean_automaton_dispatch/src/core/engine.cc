// Fixture: must lint CLEAN — an engine that dispatches through
// visitAutomaton and only names kinds outside case labels.
#include "core/automaton.hh"

namespace fixture
{

bool
runFused(AutomatonKind kind)
{
    if (kind == AutomatonKind::LastTime)
        return false;
    return visitAutomaton(kind, [](const auto &) {});
}

} // namespace fixture

// Fixture: must lint CLEAN — src/core/automaton.hh is the home of
// visitAutomaton, the one switch over AutomatonKind.
#ifndef FIXTURE_AUTOMATON_HH
#define FIXTURE_AUTOMATON_HH

namespace fixture
{

enum class AutomatonKind
{
    LastTime,
    A2
};

template <AutomatonKind K>
struct AutomatonOps
{
};

template <typename F>
bool
visitAutomaton(AutomatonKind kind, F &&f)
{
    switch (kind) {
      case AutomatonKind::LastTime:
        f(AutomatonOps<AutomatonKind::LastTime>{});
        return true;
      case AutomatonKind::A2:
        f(AutomatonOps<AutomatonKind::A2>{});
        return true;
    }
    return false;
}

} // namespace fixture

#endif // FIXTURE_AUTOMATON_HH

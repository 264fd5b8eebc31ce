"""The stage-state protocol: uniform component checkpointing.

Every stateful detection component — EIA sets, the scan buffer, the
trained cluster model, pipeline stats, the alert sink, and the seeded
RNGs themselves — implements one two-method contract:

* ``state_dict()`` returns a JSON-serialisable dict capturing *all* of
  the component's mutable state (derived caches excluded: anything that
  is a pure function of the captured state may be rebuilt lazily);
* ``load_state(state)`` restores a component, in place, to exactly the
  captured state, such that every subsequent observable behaves as if
  the process had never restarted.

:mod:`repro.core.persistence` composes these sections into a versioned,
atomically-written checkpoint document; nothing outside a component ever
reaches into its underscore attributes
(``tests/test_invariants.py::test_tree_holds[REP009]`` enforces both
halves of that bargain).

Components register under a stable section name with the
:func:`stateful` decorator, which is what the warm-restart tests sweep
to prove every registered component round-trips losslessly.

A checkpoint head is re-rendered at every save, so a composite also
hands out its state as a :data:`SectionTable`: nested dicts whose
leaves are :class:`Section` values, each carrying the signal that says
whether the leaf changed.  :func:`section_state` turns a table back into
the plain state dict; a writer that remembers the text it rendered per
leaf renders only the leaves whose ``key`` moved.
"""

from __future__ import annotations

import itertools
from typing import (
    Any,
    Callable,
    Dict,
    NamedTuple,
    Protocol,
    TypeVar,
    Union,
    runtime_checkable,
)

from repro.util.errors import ConfigError
from repro.util.rng import SeededRng

__all__ = [
    "StateDict",
    "StatefulComponent",
    "STATEFUL_COMPONENTS",
    "stateful",
    "Section",
    "SectionTable",
    "section_state",
    "stamps",
]

#: The JSON-serialisable state section one component saves and restores.
StateDict = Dict[str, Any]

#: Change stamps.  A component whose section is costly to render takes
#: the next one when it changes (or, where a per-record path changes it,
#: at the first look after).  Each stamp is issued once, so two equal
#: stamps are the same object with no change in between.
stamps = itertools.count(1)


class Section(NamedTuple):
    """One leaf of a :data:`SectionTable`: a state and its change signal.

    ``state()`` builds the leaf's JSON-serialisable value.  A text
    rendered from it stays exact while ``key`` compares equal: a stamp
    (see :data:`stamps`), or the value itself for a small section of
    ints, strings, ``None`` and containers of them, where ``==`` implies
    the same canonical text.  ``key=None`` is no signal: the leaf is
    rendered every time.
    """

    key: Any
    state: Callable[[], Any]


#: JSON object key -> a :class:`Section` or a nested table.
SectionTable = Dict[str, Union[Section, "SectionTable"]]


def section_state(table: SectionTable) -> StateDict:
    """The plain state dict a :data:`SectionTable` describes."""
    return {
        name: (
            entry.state() if isinstance(entry, Section) else section_state(entry)
        )
        for name, entry in table.items()
    }


@runtime_checkable
class StatefulComponent(Protocol):
    """The uniform checkpoint contract (see the module docstring)."""

    def state_dict(self) -> StateDict:
        """Capture all mutable state as a JSON-serialisable dict."""

    def load_state(self, state: StateDict) -> None:
        """Restore the component, in place, from a captured state dict."""


#: Section name -> implementing class, for every registered component.
STATEFUL_COMPONENTS: Dict[str, type] = {}

_C = TypeVar("_C", bound=type)


def stateful(name: str) -> Callable[[_C], _C]:
    """Class decorator registering a component under a checkpoint name.

    The name is a stable identifier tests and tooling use to enumerate
    the protocol's implementations; it is not itself written into
    checkpoints (sections are namespaced by their *owner*, so one class
    may appear many times in a document — one RNG per reservoir, say).
    """

    def register(cls: _C) -> _C:
        existing = STATEFUL_COMPONENTS.get(name)
        if existing is not None and existing is not cls:
            raise ConfigError(
                f"stateful component name {name!r} is already registered"
                f" by {existing.__name__}"
            )
        STATEFUL_COMPONENTS[name] = cls
        return cls

    return register


# SeededRng lives below the core layer (repro.util must not import
# repro.core), so it registers here rather than decorating itself.
stateful("rng")(SeededRng)

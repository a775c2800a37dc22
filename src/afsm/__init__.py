"""Arenas of communicating Moore-style finite state machines.

Modeling, flat expansion, bisimulation minimization and compositional
(network-level) bisimulation reduction.
"""

from importlib import resources

from .model import (
    Arena,
    Fsm,
    ModelError,
    record,
    symbol,
    symbol_set,
    validate_arena,
    validate_fsm,
)
from .bisim import (
    InitialStateMismatch,
    TooLarge,
    TooLargeForGeneralIso,
    is_bisimilar,
    is_isomorphic,
    max_bisimulation,
    naive_bisim_oracle,
    quotient,
    self_partition,
)
from .expand import (
    CompositeFsm,
    GuardExceeded,
    NoInitialState,
    expand,
    state_count,
)
from .compositional import (
    MachineClasses,
    QuotientSelfLoop,
    arena_quotient,
    comp_bisimulation,
    induce_fsm,
    is_comp_bisimilar,
    machine_classes,
    reduce,
)
from .formats import (
    FormatError,
    ModelDocument,
    export_dot,
    parse,
    serialize,
)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Filesystem path of a shipped fixture, e.g. ``ecoli.afsm``."""
    return resources.files(__name__) / "fixtures" / name


def load_fixture(name: str) -> ModelDocument:
    """Parse one of the shipped fixture documents."""
    path = fixture_path(name)
    with path.open(encoding="utf-8") as fh:
        return parse(fh, source=str(path))

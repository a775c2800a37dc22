"""Compositional bisimulation of arenas.

Vertices are grouped into machine-equivalence classes by one partition
refinement of the disjoint union of their distinct machines; each arena is
then summarised by a small induced machine (one state per vertex, outputs =
class tokens, edges relabelled with the empty input set).  Compositional
bisimilarity of two arenas is bisimilarity of their induced machines under
the totality convention, which never touches the product state space.

:func:`reduce` expands only the quotient arena, and of its product only
the part its minimal machine is built from: the states reachable from the
initial state when every machine declares one.  It refines that part on
integer codes and builds names, frozensets and transitions for the states
of the minimal machine only (``expand._Expander.minimal``).  The full
product's size is still reported: its states are counted analytically and
its transitions by one sum of move counts per vertex, without visiting
its states (``expand._Expander.count_transitions``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Arena, Fsm, ModelError, _fsm, paused_gc, validate_arena
from .bisim import (
    InitialStateMismatch,
    _blocks,
    is_bisimilar,
    max_bisimulation,
    self_partition,
)
from .expand import DEFAULT_MAX_STATES, _check_guard, _Expander


class CompositionalError(ModelError):
    pass


class ClassCoverageGap(CompositionalError):
    """A vertex is not covered by the supplied machine classes."""


class QuotientSelfLoop(CompositionalError):
    """An arena edge connects two vertices of the same quotient block."""


@dataclass(frozen=True)
class MachineClasses:
    """Partition of the vertices of one or two arenas by machine bisimilarity.

    Vertices are tagged (arena_index, vertex_id); classes are ordered by
    least member, and ``token(k)`` names class k for use as an output
    symbol of the induced machines.
    """

    classes: tuple  # of frozensets of (arena_index, vertex_id)
    class_index: dict  # (arena_index, vertex_id) -> ordinal

    def token(self, k: int) -> str:
        return f"C{k}"

    def tokens(self) -> tuple:
        return tuple(self.token(k) for k in range(len(self.classes)))

    def token_of(self, arena_index: int, vertex_id: str) -> str:
        return self.token(self.class_index[(arena_index, vertex_id)])


def machine_classes(a1: Arena, a2: Arena | None = None) -> MachineClasses:
    """Group all vertices of one or two arenas by machine bisimilarity."""
    tagged = [(0, v, fsm) for v, fsm in a1.vertices]
    if a2 is not None:
        tagged += [(1, v, fsm) for v, fsm in a2.vertices]

    with_initial = [fsm.initial is not None for _, _, fsm in tagged]
    if any(with_initial) and not all(with_initial):
        raise InitialStateMismatch(
            "machines disagree on declaring initial states; classes would be ill-defined"
        )

    # the vertices of each distinct machine, then one refinement of those
    # machines; a machine's class is the block of its initial state, or
    # under the totality convention its set of blocks
    members = {}
    for tag, v, fsm in tagged:
        members.setdefault(fsm, []).append((tag, v))
    groups = {}
    for (fsm, vertices), block in zip(members.items(), _blocks(*members)):
        key = block[fsm.initial] if fsm.initial is not None else frozenset(block.values())
        groups.setdefault(key, []).extend(vertices)

    # canonical order: by least member of each class
    classes = tuple(sorted(map(frozenset, groups.values()), key=min))
    index = {m: k for k, members in enumerate(classes) for m in members}
    return MachineClasses(classes=classes, class_index=index)


def induce_fsm(arena: Arena, classes: MachineClasses, arena_index: int = 0) -> Fsm:
    """The induced machine of an arena: one state per vertex.

    Outputs are the class tokens, every transition carries the empty input
    set, and there is no initial state (the decision procedure uses the
    totality convention).
    """
    for v, _ in arena.vertices:
        if (arena_index, v) not in classes.class_index:
            raise ClassCoverageGap(
                f"arena {arena.id}: vertex {v!r} is not covered by the machine classes"
            )
    empty = frozenset()
    out_map = {v: frozenset({classes.token_of(arena_index, v)}) for v in arena.vertex_ids}
    trans = ((a, empty, b) for a, b in arena.edges)
    tokens = frozenset(classes.tokens())
    return _fsm(f"induced_{arena.id}", out_map, None, empty, tokens, out_map, trans)


def comp_bisimulation(a1: Arena, a2: Arena) -> frozenset:
    """The maximal compositional bisimulation as vertex pairs of a1 x a2."""
    classes = machine_classes(a1, a2)
    f1 = induce_fsm(a1, classes, 0)
    f2 = induce_fsm(a2, classes, 1)
    return max_bisimulation(f1, f2)


def is_comp_bisimilar(a1: Arena, a2: Arena) -> bool:
    """Decide compositional bisimilarity via the induced machines."""
    classes = machine_classes(a1, a2)
    return is_bisimilar(induce_fsm(a1, classes, 0), induce_fsm(a2, classes, 1))


def arena_quotient(arena: Arena) -> Arena:
    """The minimal compositionally bisimilar arena.

    One vertex per block of the compositional self-bisimulation,
    represented by the block's least member with its machine reused
    verbatim.  An arena edge inside a single block would force a self-loop
    in the quotient, which the model forbids, so it is a hard error.
    """
    return _arena_quotient(arena, machine_classes(arena))


def _arena_quotient(arena: Arena, classes: MachineClasses) -> Arena:
    """:func:`arena_quotient`, given the machine classes of ``arena``."""
    rep = {}
    for block in self_partition(induce_fsm(arena, classes, 0)):
        least = min(block)
        for v in block:
            rep[v] = least
    machines = dict(arena.vertices)
    vertices = {least: machines[least] for least in set(rep.values())}
    edges = set()
    for a, b in arena.edges:
        ra, rb = rep[a], rep[b]
        if ra == rb:
            raise QuotientSelfLoop(
                f"arena {arena.id}: edge ({a!r}, {b!r}) connects two vertices of one block"
            )
        edges.add((ra, rb))
    return validate_arena(f"{arena.id}_min", vertices, edges)


@paused_gc
def reduce(arena: Arena, max_states: int = DEFAULT_MAX_STATES):
    """Five-step reduction: classes, arena quotient, expansion, quotient.

    Returns (minimal machine, report) where the report records the size of
    every intermediate step.  The expansion's size is that of the full
    product of the quotient arena, which ``max_states`` guards; it is
    counted without visiting the product's states.  The minimal machine
    is that of ``quotient(expand(arena_quotient(arena), mode="full").fsm)``,
    built from the states reachable from the initial state, or from all
    of them without initial states, refined on codes.  Only its own states
    are given names and frozensets, each named after the least name in
    its block.
    """
    classes = machine_classes(arena)
    a_min = _arena_quotient(arena, classes)
    total = _check_guard(a_min, max_states)
    ex = _Expander(a_min)
    codes, names, outputs, succ = ex.explore("full" if ex.initial is None else "accessible", max_states)
    minimal = ex.minimal(codes, names, outputs, succ)
    report = {
        "classes": len(classes.classes),
        "quotient_vertices": len(a_min.vertices),
        "expanded_states": total,
        "expanded_transitions": ex.count_transitions(codes, succ),
        "final_states": len(minimal.states),
        "final_transitions": len(minimal.transitions),
    }
    return minimal, report


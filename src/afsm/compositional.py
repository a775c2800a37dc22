"""Compositional bisimulation of arenas.

Vertices are grouped into machine-equivalence classes by one partition
refinement of the disjoint union of their distinct machines; each arena is
then summarised by a small induced machine (one state per vertex, outputs =
class tokens, edges relabelled with the empty input set).  Compositional
bisimilarity of two arenas is bisimilarity of their induced machines under
the totality convention, which never touches the product state space.

After the classes, every verdict is one refinement of the induced
machines involved, kept on integers: :func:`_induced` gives an arena's
induced machine as class ordinals and (0, target position) moves, which
``bisim._refine`` reads as they are.  :func:`is_comp_bisimilar`,
:func:`comp_bisimulation` and the CLI's ``check-comp-bisim`` read the
block ids of one refinement of the two arenas' induced machines, and
:func:`arena_quotient` those of one arena's.  No token, frozenset or
``Fsm`` is built for them; :func:`induce_fsm` builds the induced machine
for callers that want to see it.

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

from .model import Arena, Fsm, ModelError, _arena, _fsm, stage
from .bisim import InitialStateMismatch, _blocks, _pairs, _refine
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


@stage("machine_classes")
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
        key = block[fsm.states.index(fsm.initial)] if fsm.initial is not None else frozenset(block)
        groups.setdefault(key, []).extend(vertices)

    # canonical order: by least member of each class
    classes = tuple(sorted(map(frozenset, groups.values()), key=min))
    index = {m: k for k, members in enumerate(classes) for m in members}
    return MachineClasses(classes=classes, class_index=index)


def _induced(arena: Arena, classes: MachineClasses, arena_index: int = 0, offset: int = 0):
    """The induced machine of ``arena`` on integers, as :func:`bisim._refine` reads it.

    Returns, per vertex in ``arena.vertices`` order, its class ordinal and
    its list of (0, ``offset`` + target position) moves, one per edge.
    A vertex that ``classes`` does not cover raises :class:`ClassCoverageGap`.
    """
    index = classes.class_index
    try:
        outputs = [index[(arena_index, v)] for v, _ in arena.vertices]
    except KeyError:
        v = next(v for v, _ in arena.vertices if (arena_index, v) not in index)
        raise ClassCoverageGap(
            f"arena {arena.id}: vertex {v!r} is not covered by the machine classes"
        ) from None
    pos = {v: i for i, (v, _) in enumerate(arena.vertices)}
    succ = [[] for _ in outputs]
    for a, b in arena.edges:
        succ[pos[a]].append((0, offset + pos[b]))
    return outputs, succ


def induce_fsm(arena: Arena, classes: MachineClasses, arena_index: int = 0) -> Fsm:
    """The induced machine of an arena: one state per vertex.

    Outputs are the class tokens, every transition carries the empty input
    set, and there is no initial state (the decision procedure uses the
    totality convention).
    """
    outputs, succ = _induced(arena, classes, arena_index)
    ids = arena.vertex_ids
    tokens = classes.tokens()
    token_sets = [frozenset({token}) for token in tokens]
    out_map = {v: token_sets[k] for v, k in zip(ids, outputs)}
    empty = frozenset()
    trans = [(v, empty, ids[d]) for v, moves in zip(ids, succ) for _, d in moves]
    return _fsm(f"induced_{arena.id}", out_map, None, empty, frozenset(tokens), out_map, trans)


def _comp_blocks(a1: Arena, a2: Arena, classes: MachineClasses) -> tuple:
    """Block ids of the vertices of ``a1`` and of ``a2``, in vertex order.

    One refinement of the disjoint union of the two induced machines:
    two vertices are compositionally bisimilar iff their block ids are
    equal.
    """
    out1, succ1 = _induced(a1, classes, 0)
    out2, succ2 = _induced(a2, classes, 1, len(out1))
    block = _refine(len(out1) + len(out2), out1 + out2, succ1 + succ2)
    return block[: len(out1)], block[len(out1) :]


def _comp_pairs(a1: Arena, a2: Arena, b1: list, b2: list) -> frozenset:
    """The vertex pairs of a1 x a2 with equal block ids, given by :func:`_comp_blocks`."""
    return _pairs(a1.vertex_ids, b1, a2.vertex_ids, b2)


def comp_bisimulation(a1: Arena, a2: Arena) -> frozenset:
    """The maximal compositional bisimulation as vertex pairs of a1 x a2."""
    return _comp_pairs(a1, a2, *_comp_blocks(a1, a2, machine_classes(a1, a2)))


def is_comp_bisimilar(a1: Arena, a2: Arena) -> bool:
    """Decide compositional bisimilarity: both arenas' vertices occupy the same blocks.

    This is bisimilarity of the induced machines under the totality
    convention, as they have no initial state.
    """
    b1, b2 = _comp_blocks(a1, a2, machine_classes(a1, a2))
    return set(b1) == set(b2)


def arena_quotient(arena: Arena) -> Arena:
    """The minimal compositionally bisimilar arena.

    One vertex per block of the compositional self-bisimulation,
    represented by the block's least member with its machine reused
    verbatim.  An arena edge inside a single block would force a self-loop
    in the quotient, which the model forbids, so it is a hard error.
    """
    return _arena_quotient(arena, machine_classes(arena))


@stage("_arena_quotient")
def _arena_quotient(arena: Arena, classes: MachineClasses) -> Arena:
    """:func:`arena_quotient`, given the machine classes of ``arena``."""
    outputs, succ = _induced(arena, classes)
    block = _refine(len(outputs), outputs, succ)
    least = {}  # block -> (its least vertex, its machine); vertices are in id order
    for (v, fsm), b in zip(arena.vertices, block):
        least.setdefault(b, (v, fsm))
    rep = {v: least[b][0] for (v, _), b in zip(arena.vertices, block)}
    edges = set()
    for a, b in arena.edges:
        ra, rb = rep[a], rep[b]
        if ra == rb:
            raise QuotientSelfLoop(
                f"arena {arena.id}: edge ({a!r}, {b!r}) connects two vertices of one block"
            )
        edges.add((ra, rb))
    return _arena(f"{arena.id}_min", least.values(), edges)


@stage("reduce")
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


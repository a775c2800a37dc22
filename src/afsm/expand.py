"""Expansion of an arena into its flat synchronous-product machine.

Semantics is fully synchronous: in every composite step each vertex
machine fires exactly one of its outgoing transitions.  The composite
input label is the union of the per-machine labels, with each machine's
symbols stripped of whatever its network predecessors currently output.
A composite state where some machine cannot move has no successors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .model import Arena, Fsm, ModelError, _label_key, predecessors

DEFAULT_MAX_STATES = 10**7

PART_SEP = "."


class ExpansionError(ModelError):
    pass


class GuardExceeded(ExpansionError):
    """Requested expansion is larger than the state guard.

    ``count`` is the analytic state count of a full expansion, or the
    number of distinct states an accessible expansion had found when the
    guard fired.
    """

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


class NoInitialState(ExpansionError):
    """Accessible-mode expansion needs an initial state on every machine."""


class ArityMismatch(ExpansionError):
    pass


class UnknownComponentState(ExpansionError):
    pass


@dataclass(frozen=True)
class CompositeFsm:
    """The expanded machine of an arena, with state-tuple provenance.

    ``fsm`` is an ordinary validated machine whose state ids encode the
    component tuples; ``parts`` maps each state id back to its tuple of
    component states, in ``vertex_order``.
    """

    fsm: Fsm
    arena_id: str
    vertex_order: tuple
    parts: dict  # state id -> tuple of component state ids

    @property
    def states(self):
        return self.fsm.states

    @property
    def transitions(self):
        return self.fsm.transitions

    @property
    def initial(self):
        return self.fsm.initial

    @property
    def output_map(self):
        return self.fsm.output_map

    def state_tuples(self):
        return frozenset(self.parts.values())


def state_count(arena: Arena) -> int:
    """Exact number of composite states, computed analytically."""
    return math.prod(len(fsm.states) for _, fsm in arena.vertices)


def composite_name(parts) -> str:
    """A state id for a composite state, injective on tuples of one arity.

    Parts without a dot are joined with dots, which leaves exactly
    ``len(parts) - 1`` dots in the name.  State ids may contain dots, so a
    tuple that has a dotted part is escaped (``+`` -> ``++``, ``.`` -> ``+-``)
    and led by one more dot: its name has ``len(parts)`` dots and can match
    no plain name, and the escape can be undone part by part.
    """
    name = PART_SEP.join(parts)
    if name.count(PART_SEP) == len(parts) - 1:
        return name
    return PART_SEP + PART_SEP.join(
        p.replace("+", "++").replace(PART_SEP, "+-") for p in parts
    )


class _Expander:
    """Precomputed per-arena tables for fast successor enumeration."""

    def __init__(self, arena: Arena):
        self.arena = arena
        self.order = arena.vertex_ids
        self.machines = [fsm for _, fsm in arena.vertices]
        index = {v: i for i, v in enumerate(self.order)}
        self.pre = [
            tuple(sorted(index[u] for u in predecessors(arena, v))) for v in self.order
        ]
        # outgoing transitions per vertex, grouped by source state
        self.out = [
            {s: tuple(m.successors(s)) for s in m.states} for m in self.machines
        ]
        self._move_cache = {}

    def check_state(self, parts):
        if len(parts) != len(self.order):
            raise ArityMismatch(
                f"composite state has {len(parts)} parts, arena has {len(self.order)} vertices"
            )
        for i, s in enumerate(parts):
            if s not in self.machines[i].output_map:
                raise UnknownComponentState(
                    f"state {s!r} is not a state of vertex {self.order[i]!r}"
                )

    def moves(self, i, s, strip):
        """Stripped outgoing transitions of vertex ``i`` at component state ``s``."""
        key = (i, s, strip)
        cached = self._move_cache.get(key)
        if cached is None:
            cached = tuple(
                (u - strip if strip else u, d) for u, d in self.out[i][s]
            )
            self._move_cache[key] = cached
        return cached

    def successors(self, parts):
        outs = [self.machines[i].output_map[s] for i, s in enumerate(parts)]
        per_vertex = []
        for i, s in enumerate(parts):
            strip = frozenset().union(*(outs[j] for j in self.pre[i])) if self.pre[i] else frozenset()
            mv = self.moves(i, s, strip)
            if not mv:
                return set()  # composite deadlock: some machine cannot fire
            per_vertex.append(mv)
        result = set()
        for combo in product(*per_vertex):
            label = frozenset().union(*(u for u, _ in combo))
            result.add((label, tuple(d for _, d in combo)))
        return result

    def output(self, parts):
        return frozenset().union(
            *(self.machines[i].output_map[s] for i, s in enumerate(parts))
        )


def composite_successors(arena: Arena, parts) -> set:
    """Successor (label, state-tuple) pairs of one composite state."""
    ex = _Expander(arena)
    ex.check_state(tuple(parts))
    return ex.successors(tuple(parts))


def expand(arena: Arena, mode: str = "accessible", max_states: int = DEFAULT_MAX_STATES) -> CompositeFsm:
    """Expand ``arena`` to its flat machine.

    ``mode="full"`` enumerates the whole Cartesian state space (guarded by
    ``max_states``); ``mode="accessible"`` explores only states reachable
    from the composite initial state, which every machine must declare.
    """
    if mode not in ("full", "accessible"):
        raise ValueError(f"unknown expansion mode {mode!r}")
    ex = _Expander(arena)

    initial_parts = None
    if all(m.initial is not None for m in ex.machines):
        initial_parts = tuple(m.initial for m in ex.machines)

    if mode == "full":
        total = state_count(arena)
        if total > max_states:
            raise GuardExceeded(
                f"full expansion of {arena.id} has {total} states, guard is {max_states}",
                count=total,
            )
        all_states = [tuple(p) for p in product(*(m.states for m in ex.machines))]
    else:
        if initial_parts is None:
            raise NoInitialState(
                f"arena {arena.id}: accessible expansion needs initial states on every machine"
            )
        seen = {initial_parts}
        frontier = [initial_parts]
        while frontier:
            parts = frontier.pop()
            for _, dst in ex.successors(parts):
                if dst not in seen:
                    if len(seen) >= max_states:
                        raise GuardExceeded(
                            f"accessible expansion of {arena.id} exceeded the guard {max_states}",
                            count=len(seen) + 1,
                        )
                    seen.add(dst)
                    frontier.append(dst)
        all_states = sorted(seen)

    names = {parts: composite_name(parts) for parts in all_states}
    out_map = {names[p]: ex.output(p) for p in all_states}
    transitions = []
    state_set = set(all_states)
    for parts in all_states:
        src = names[parts]
        for label, dst in ex.successors(parts):
            if dst in state_set:
                transitions.append((src, label, names[dst]))
    inputs = frozenset().union(*(m.inputs for m in ex.machines))
    outputs = frozenset().union(*(m.outputs for m in ex.machines))

    fsm = Fsm(
        id=f"M_{arena.id}",
        states=tuple(sorted(names[p] for p in all_states)),
        initial=None if initial_parts is None else names.get(initial_parts),
        inputs=inputs,
        outputs=outputs,
        output_map=out_map,
        transitions=tuple(
            sorted(set(transitions), key=lambda t: (t[0], _label_key(t[1]), t[2]))
        ),
    )
    parts_of = {names[p]: p for p in all_states}
    return CompositeFsm(fsm=fsm, arena_id=arena.id, vertex_order=ex.order, parts=parts_of)

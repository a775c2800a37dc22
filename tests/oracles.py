"""Reference semantics that the library is tested against.

Everything here is written from the definitions, on frozensets and state
tuples, and imports nothing from ``afsm``: it reads only the fields of the
machines and arenas it is given, so it shares no code with the
computations it checks.
"""

from itertools import product


class ArityMismatch(ValueError):
    pass


class UnknownComponentState(ValueError):
    pass


def composite_successors(arena, parts) -> set:
    """Successor (label, state-tuple) pairs of one composite state.

    Every vertex machine fires one of its transitions.  A machine's label
    is stripped of what its predecessors in ``arena.edges`` currently
    output, and the composite label is the union of the stripped labels.
    A composite state where some machine cannot move has no successors.
    """
    parts = tuple(parts)
    if len(parts) != len(arena.vertices):
        raise ArityMismatch(
            f"composite state has {len(parts)} parts, arena has {len(arena.vertices)} vertices"
        )
    for (v, fsm), s in zip(arena.vertices, parts):
        if s not in fsm.output_map:
            raise UnknownComponentState(f"state {s!r} is not a state of vertex {v!r}")
    outs = {v: fsm.output_map[s] for (v, fsm), s in zip(arena.vertices, parts)}
    per_vertex = []
    for (v, fsm), s in zip(arena.vertices, parts):
        strip = frozenset().union(*(outs[a] for a, b in arena.edges if b == v))
        moves = [(u - strip, d) for src, u, d in fsm.transitions if src == s]
        if not moves:
            return set()  # composite deadlock: some machine cannot fire
        per_vertex.append(moves)
    return {
        (frozenset().union(*(u for u, _ in combo)), tuple(d for _, d in combo))
        for combo in product(*per_vertex)
    }

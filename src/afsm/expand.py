"""Expansion of an arena into its flat synchronous-product machine.

Semantics is fully synchronous: in every composite step each vertex
machine fires exactly one of its outgoing transitions.  The composite
input label is the union of the per-machine labels, with each machine's
symbols stripped of whatever its network predecessors currently output.
A composite state where some machine cannot move has no successors.

``composite_successors`` in ``tests/oracles.py`` states these semantics
directly on frozensets and state tuples, and is the reference semantics
the expansion is tested against.  :func:`expand` computes the same
machine on integers:

- every symbol of the arena is one bit, so a stripped label is
  ``u & ~strip`` and a label union is ``|``;
- a component state is its index in its machine's ``states``, and a
  composite state is the mixed-radix integer of those digits with vertex 0
  most significant, so integer order is tuple order;
- successors are folded in one vertex at a time into a set of
  (label mask, code) pairs, each packed into one int, so coinciding
  combinations collapse as they arise.

Exploration (:meth:`_Expander.explore`) finds the codes of the states and
their successors.  Assembly (:meth:`_Expander.assemble`) then builds state
names, ``parts`` tuples and label and output frozensets once each, and
hands the transitions, in any order, to ``model._fsm``, which puts the
machine in canonical order.  :meth:`_Expander.minimal` builds instead the
minimal machine of the explored states: it refines their codes, joins
their names to rank each block's members, and builds frozensets and
transitions for the representatives only.

``compositional.reduce`` needs only the size of the full product, whose
transitions :meth:`_Expander.count_transitions` counts without visiting
its states.  Two successors with different target digits are different
codes, so a state none of whose machine states has two moves into one
target has exactly the product of its vertices' move counts as
transitions, whatever the strip; summed over such states, that product
factorises into one sum per vertex.  Only the states with a *branching*
machine state, one with two moves into one target, are visited, because
there stripping and label unions can merge successors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from operator import getitem, mul, or_

from .bisim import _quotient_moves
from .model import Arena, Fsm, ModelError, _fsm, _index, paused_gc

# A full expansion of E. coli's 55,296-state quotient arena (400,000
# transitions) raises peak RSS from 15.6 MB to 121.5 MB in a fresh
# CPython 3.11 process: about 2.0 KB per composite state.  10**6 states
# is then about 2 GB, a quarter of an 8 GB machine.
DEFAULT_MAX_STATES = 10**6

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


@dataclass(frozen=True)
class CompositeFsm:
    """The expanded machine of an arena, with state-tuple provenance.

    ``fsm`` is an ordinary validated machine whose state ids encode the
    component tuples; ``parts`` maps each state id back to its tuple of
    component states, in ``vertex_order``.
    """

    fsm: Fsm
    vertex_order: tuple
    parts: dict  # state id -> tuple of component state ids


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


def _union(masks) -> int:
    return reduce(or_, masks, 0)


def _fold(pair: int, forks):
    """The successors of one pair and the move tables ``forks``.

    The tables are folded in one at a time, so combinations that coincide
    collapse as they arise.
    """
    acc = (pair,)
    for moves in forks:
        acc = {(p | u) + t for p in acc for u, t in moves}
    return tuple(acc)  # kept per state, where a tuple takes a fraction of a set's memory


class _Expander:
    """Integer tables of one arena, for successor enumeration on codes.

    Digit ``i`` of a composite state is the index of vertex ``i``'s
    component state in its machine's ``states``, and the state's code is
    the sum of its digits times their place values ``weights``.  Symbol
    ``symbols[k]`` is bit ``k`` of a mask.  A successor is one int, its
    label mask shifted left by ``shift`` plus its code, so label masks in
    the tables are kept shifted too: a union is ``|`` and adding a digit
    is ``+``.
    """

    def __init__(self, arena: Arena):
        self.arena = arena
        self.order = arena.vertex_ids
        self.machines = machines = [fsm for _, fsm in arena.vertices]
        self.state_ids = [m.states for m in machines]
        self.weights = [
            math.prod(len(m.states) for m in machines[i + 1:]) for i in range(len(machines))
        ]
        # code of the composite initial state, if every machine declares one
        self.initial = None
        if all(m.initial is not None for m in machines):
            self.initial = sum(m.states.index(m.initial) * w for m, w in zip(machines, self.weights))
        self.shift = shift = (state_count(arena) - 1).bit_length()
        self.symbols = sorted(frozenset().union(*(m.inputs | m.outputs for m in machines)))
        bit = {x: 1 << (k + shift) for k, x in enumerate(self.symbols)}
        index = {v: i for i, v in enumerate(self.order)}
        self.pre = [[] for _ in machines]
        for a, b in arena.edges:
            self.pre[index[b]].append(index[a])
        labels = {}  # shared, so each distinct label gets one mask
        indexed = [_index(m, labels) for m in machines]
        mask = [_union(bit[x] for x in label) for label in labels]
        # per vertex and state: shifted output mask
        self.outputs = [
            [_union(bit[x] for x in m.output_map[s]) for s in m.states] for m in machines
        ]
        # per vertex and state: (shifted label mask, dst digit * weight),
        # distinct because the machine's transitions are
        self.moves = [
            [tuple([(mask[lab], d * w) for lab, d in mv]) for mv in succ]
            for succ, w in zip(indexed, self.weights)
        ]
        # per vertex and state: union of its label masks
        self.label_bits = [[_union(u for u, _ in mv) for mv in moves] for moves in self.moves]
        # per vertex and state: strip mask -> stripped, deduplicated moves
        self._stripped = [[{} for _ in m.states] for m in machines]

    def _moves(self, digits):
        """The moves of the state with ``digits`` for :func:`_fold`, or None if it deadlocks.

        Vertices with one move add the same label bits and digit to every
        successor, so they are summed into one pair; the move tables of the
        other vertices are returned as they are.
        """
        outputs = list(map(list.__getitem__, self.outputs, digits))
        pair = 0
        forks = []
        for i, d in enumerate(digits):
            moves = self.moves[i][d]
            strip = 0
            for j in self.pre[i]:
                strip |= outputs[j]
            strip &= self.label_bits[i][d]
            if strip:
                table = self._stripped[i][d]
                stripped = table.get(strip)
                if stripped is None:
                    stripped = table[strip] = tuple({(u & ~strip, t) for u, t in moves})
                moves = stripped
            if len(moves) == 1:
                ((u, t),) = moves
                pair = (pair | u) + t
            elif moves:
                forks.append(moves)
            else:
                return None  # composite deadlock: some machine cannot fire
        return pair, forks

    def successors(self, digits):
        """Distinct successors (label mask << shift | code) of the state with ``digits``."""
        found = self._moves(digits)
        return () if found is None else _fold(*found)

    def decode(self, code: int) -> tuple:
        digits = []
        for w in self.weights:
            d, code = divmod(code, w)
            digits.append(d)
        return tuple(digits)

    def symbol_set(self, mask: int) -> frozenset:
        """The symbols of a shifted mask."""
        mask >>= self.shift
        return frozenset(x for k, x in enumerate(self.symbols) if mask >> k & 1)

    def explore(self, mode: str, max_states: int):
        """Ascending codes of the expansion's states, with the digits and the successors of each.

        ``mode="full"`` takes every code; ``mode="accessible"`` walks from
        the initial state.  Both are guarded by ``max_states``.
        """
        arena = self.arena
        if mode == "full":
            codes = range(_check_guard(arena, max_states))
            digits = list(product(*(range(len(m.states)) for m in self.machines)))
            return codes, digits, list(map(self.successors, digits))
        if self.initial is None:
            raise NoInitialState(
                f"arena {arena.id}: accessible expansion needs initial states on every machine"
            )
        if max_states < 1:  # the initial state counts against the guard too
            raise GuardExceeded(
                f"accessible expansion of {arena.id} exceeded the guard {max_states}", count=1
            )
        low = (1 << self.shift) - 1
        digits_of = {self.initial: self.decode(self.initial)}
        succ_of = {}
        frontier = [self.initial]
        while frontier:
            code = frontier.pop()
            succ_of[code] = found = self.successors(digits_of[code])
            for p in found:
                dst = p & low
                if dst not in digits_of:
                    if len(digits_of) >= max_states:
                        raise GuardExceeded(
                            f"accessible expansion of {arena.id} exceeded the guard {max_states}",
                            count=len(digits_of) + 1,
                        )
                    digits_of[dst] = self.decode(dst)
                    frontier.append(dst)
        codes = sorted(digits_of)
        return codes, [digits_of[c] for c in codes], [succ_of[c] for c in codes]

    def count_transitions(self, codes, succ) -> int:
        """Number of transitions of the full expansion, without visiting its states.

        A machine state is *plain* if its moves lead to distinct targets and
        *branching* otherwise.  The successors of a composite state of plain
        states differ in their target digits, so there are exactly as many
        as the product of its vertices' move counts: a deadlock counts 0, and
        stripping cannot merge two moves.  Summed over all such states, the
        product is the product of one sum per vertex.  The states that
        include a branching machine state are enumerated, by the position of
        the first one, and counted exactly: ``succ`` holds the successors of
        the states ``codes``, which are counted, not computed again; the
        others are folded.  States with a deadlocked machine state are never
        visited.
        """
        plain, branching = [], []
        for moves in self.moves:
            p, b = [], []
            for d, mv in enumerate(moves):
                if mv:
                    (p if len({t for _, t in mv}) == len(mv) else b).append(d)
            plain.append(p)
            branching.append(b)
        total = math.prod(sum(len(moves[d]) for d in p) for moves, p in zip(self.moves, plain))
        if not any(branching):
            return total
        found = dict(zip(codes, map(len, succ)))
        live = [p + b for p, b in zip(plain, branching)]
        for k, b in enumerate(branching):
            for digits in product(*plain[:k], b, *live[k + 1:]):
                n = found.get(sum(map(mul, digits, self.weights)))
                total += len(_fold(*self._moves(digits))) if n is None else n
        return total

    def assemble(self, codes, digits, succ) -> CompositeFsm:
        """The expanded machine on the states ``codes``, from :meth:`explore`'s result."""
        low = (1 << self.shift) - 1
        high = ~low
        parts = [tuple(map(getitem, self.state_ids, ds)) for ds in digits]
        names = list(map(composite_name, parts))
        name_of = dict(zip(codes, names))
        sets = cache(self.symbol_set)  # each distinct mask's frozenset is built once
        transitions = [
            (src, sets(p & high), name_of[p & low]) for src, found in zip(names, succ) for p in found
        ]
        out_map = {
            name: sets(reduce(or_, map(list.__getitem__, self.outputs, ds)))
            for name, ds in zip(names, digits)
        }
        initial = None if self.initial is None else name_of[self.initial]
        fsm = self._machine(names, initial, out_map, transitions)
        return CompositeFsm(fsm=fsm, vertex_order=self.order, parts=dict(zip(names, parts)))

    def minimal(self, codes, digits, succ) -> Fsm:
        """The minimal machine of the states ``codes``, from :meth:`explore`'s result."""
        low = (1 << self.shift) - 1
        high = ~low
        at = {c: i for i, c in enumerate(codes)}
        labels = {}  # shifted label mask -> label id
        moves = [[(labels.setdefault(p & high, len(labels)), at[p & low]) for p in s] for s in succ]
        outputs = [reduce(or_, map(list.__getitem__, self.outputs, ds)) for ds in digits]
        names = [composite_name(tuple(map(getitem, self.state_ids, ds))) for ds in digits]
        start = None if self.initial is None else at[self.initial]
        reps, rep_moves, start = _quotient_moves(
            len(codes), outputs.__getitem__, moves.__getitem__, start, names.__getitem__
        )
        mask = list(labels)
        sets = cache(self.symbol_set)
        transitions = [(names[i], sets(mask[lab]), names[d]) for i, lab, d in rep_moves]
        out_map = {names[i]: sets(outputs[i]) for i in reps}
        return self._machine(out_map, None if start is None else names[start], out_map, transitions)

    def _machine(self, states, initial, out_map, transitions) -> Fsm:
        """An ``Fsm`` named after the arena, with the union of its machines' alphabets."""
        inputs = frozenset().union(*(m.inputs for m in self.machines))
        outputs = frozenset().union(*(m.outputs for m in self.machines))
        return _fsm(f"M_{self.arena.id}", states, initial, inputs, outputs, out_map, transitions)


def _check_guard(arena: Arena, max_states: int) -> int:
    """The analytic state count of ``arena``; raises if it exceeds ``max_states``."""
    total = state_count(arena)
    if total > max_states:
        raise GuardExceeded(
            f"full expansion of {arena.id} has {total} states, guard is {max_states}",
            count=total,
        )
    return total


@paused_gc
def expand(arena: Arena, mode: str = "accessible", max_states: int = DEFAULT_MAX_STATES) -> CompositeFsm:
    """Expand ``arena`` to its flat machine.

    ``mode="full"`` enumerates the whole Cartesian state space (guarded by
    ``max_states``); ``mode="accessible"`` explores only states reachable
    from the composite initial state, which every machine must declare.
    """
    if mode not in ("full", "accessible"):
        raise ValueError(f"unknown expansion mode {mode!r}")
    ex = _Expander(arena)
    return ex.assemble(*ex.explore(mode, max_states))

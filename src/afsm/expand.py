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

One fold, built once per expander (``_Expander.fold``), computes this
step for a set of vertices whose digits are fixed: it strips their moves
of their predecessors' outputs, sums the vertices with one move into one
pair, and folds in the vertices with several.  Every path to successors
goes through it: the full walk, the accessible walk and the transition
count.

Exploration (:meth:`_Expander.explore`) finds the codes of the states,
with the name, output mask and successors of each; the names come from the
product of the machines' states, or from the digits of each state reached,
so no list of part tuples is built.  A full expansion is one depth-first
walk over prefixes (:meth:`_Expander._walk`).  It fixes the vertices'
digits in a *nesting order*, and a prefix carries its partial code, output
mask and successor set.  A vertex's stripped moves depend on its own digit
and its predecessors' digits only, so one call of the fold computes them
and folds them in once per prefix, at the first level where all of those
digits are fixed, and every state below that prefix shares them.  The
nesting order is built from the end: each step puts last the remaining
vertex that the fewest remaining vertices read, because the moves of the
vertices that read the last vertex are computed once per state.  An
accessible expansion walks from the initial state instead, and folds all
vertices of each state it reaches at once (:meth:`_Expander.successors`).

Assembly (:meth:`_Expander.assemble`) then builds label and output
frozensets once each, ranks the names and the labels once, and builds the
transitions already in canonical order, which ``model._fsm`` checks in one
scan and keeps.  It consumes the successors: once they are sort keys it
empties their list, and it decodes the sorted keys into transitions in
place, so each transition is held in one form at a time.  The parts of
each state are built last, after the machine.
:meth:`_Expander.minimal` builds instead the minimal machine of the
explored states: it hands their names, output masks and moves on
integers to ``bisim._minimal``, which also ends ``bisim.quotient``: it
refines them, names each block after its least member, and builds
frozensets and transitions for the representatives only.

``compositional.reduce`` needs only the size of the full product, whose
transitions :meth:`_Expander.count_transitions` counts without visiting
its states.  Two successors with different target digits are different
codes, so a state none of whose machine states has two moves into one
target has exactly the product of its vertices' move counts as
transitions, whatever the strip; summed over such states, that product
factorises into one sum per vertex.  Only the states with a *branching*
machine state, one with two moves into one target, are visited, because
there stripping and label unions can merge successors; the fold computes
their successors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate, product
from operator import getitem, mul, or_

from .bisim import _minimal
from .model import Arena, Fsm, ModelError, _fsm, _index, _label_key, paused_gc

# A full expansion of E. coli's 55,296-state quotient arena (400,000
# transitions) raises peak RSS from 17.6 MB to 82.0 MB in a fresh
# CPython 3.11 process: about 1.2 KB per composite state.  10**6 states
# is then about 1.2 GB, a seventh of an 8 GB machine.
DEFAULT_MAX_STATES = 10**6

PART_SEP = "."

# sorted keys decoded into transitions per slice: a slice's keys and tuples are
# the only transitions held in two forms at once
_DECODE_SLICE = 4096


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
        sizes = [len(m.states) for m in machines]
        self.weights = list(accumulate(sizes[:0:-1], mul, initial=1))[::-1]
        # code of the composite initial state, if every machine declares one
        self.initial = None
        if all(m.initial is not None for m in machines):
            self.initial = sum(m.states.index(m.initial) * w for m, w in zip(machines, self.weights))
        self.shift = shift = (state_count(arena) - 1).bit_length()
        self.symbols = sorted(frozenset().union(*(m.inputs | m.outputs for m in machines)))
        # the id and alphabets of the expanded machine
        self.header = (
            f"M_{arena.id}",
            frozenset().union(*(m.inputs for m in machines)),
            frozenset().union(*(m.outputs for m in machines)),
        )
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
        _stripped = [[{} for _ in m.states] for m in machines]
        # per vertex: its digit and output mask in the state being folded
        self.digit, self.out_of = digit, out_of = [0] * len(machines), [0] * len(machines)
        moves, label_bits, pre = self.moves, self.label_bits, self.pre

        def fold(acc, ws):
            """``acc`` extended by the stripped moves of the vertices ``ws``, or () on a deadlock.

            A vertex's moves lose the bits its predecessors output, each
            distinct result kept in ``_stripped``.  Vertices with one move add
            the same label bits and digit to every successor, so they are
            summed into one pair, which is applied together with the next
            table of several moves, or on its own at the end.  The tables are
            folded in one at a time, so combinations that coincide collapse
            as they arise.  Captures neither ``self`` nor a bound method,
            which would make a cycle that only the cyclic collector frees.
            """
            pu = pt = 0
            for w in ws:
                d = digit[w]
                mv = moves[w][d]
                strip = 0
                for j in pre[w]:
                    strip |= out_of[j]
                strip &= label_bits[w][d]
                if strip:
                    table = _stripped[w][d]
                    mv = table.get(strip)
                    if mv is None:
                        mv = table[strip] = tuple({(u & ~strip, t) for u, t in moves[w][d]})
                if len(mv) == 1:
                    ((u, t),) = mv
                    pu |= u
                    pt += t
                elif not mv:
                    return ()  # deadlock: some machine cannot fire
                elif pu or pt:
                    acc = {(p | u | pu) + t + pt for p in acc for u, t in mv}
                    pu = pt = 0
                else:
                    acc = {(p | u) + t for p in acc for u, t in mv}
            if not (pu or pt):
                return acc
            if len(acc) == 1:  # one successor, as most states of a deterministic arena have
                (p,) = acc
                return ((p | pu) + pt,)
            return {(p | pu) + pt for p in acc}

        self.fold = fold
        self.vertices = range(len(machines))  # the fold's ``ws`` for a whole state

    def successors(self, digits):
        """Distinct successors (label mask << shift | code) of the state with ``digits``."""
        self.digit[:] = digits
        self.out_of[:] = map(list.__getitem__, self.outputs, digits)
        # kept per state, where a tuple takes a fraction of a set's memory
        return tuple(self.fold((0,), self.vertices))

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
        """Ascending codes of the expansion's states, and their names, outputs and successors.

        ``mode="full"`` takes every code, from :meth:`_walk`, and names the
        states from the product of the machines' states;
        ``mode="accessible"`` walks from the initial state, computes the
        successors of each state it reaches with one call of the fold
        (:meth:`successors`) and names it from its digits.
        No list of part tuples is kept.  Both are guarded by ``max_states``.
        """
        arena = self.arena
        if mode == "full":
            outputs, succ = self._walk(_check_guard(arena, max_states))
            names = list(map(composite_name, product(*self.state_ids)))
            return range(len(succ)), names, outputs, succ
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
        digits = [digits_of[c] for c in codes]
        names = list(map(composite_name, self._parts(digits)))
        outputs = [reduce(or_, map(list.__getitem__, self.outputs, ds)) for ds in digits]
        return codes, names, outputs, [succ_of[c] for c in codes]

    def _parts(self, digits):
        """The component state tuple of each digit tuple in ``digits``, one at a time."""
        return (tuple(map(getitem, self.state_ids, ds)) for ds in digits)

    def _nesting_order(self) -> list:
        """The vertices in the order :meth:`_walk` fixes their digits.

        The order is built from the end: each step takes the remaining
        vertex that the fewest remaining vertices read (itself and its
        arena successors).  The moves of the vertices that read the last
        vertex are computed once per state, those of the vertices that
        read the one before it once per prefix above the last level, and
        so on.  A tie puts the larger machine later, then the larger
        vertex index.  Counts only fall, so a heap that skips stale
        entries keeps this O((V+E) log V).
        """
        pre, sizes = self.pre, list(map(len, self.state_ids))
        readers = [1] * len(pre)
        for ps in pre:
            for j in ps:
                readers[j] += 1
        heap = [(r, -n, -v) for v, (r, n) in enumerate(zip(readers, sizes))]
        heapify(heap)
        order = []
        while heap:
            r, _, v = heappop(heap)
            v = -v
            if r != readers[v]:
                continue  # a count that has fallen since
            readers[v] = 0  # taken: no later entry matches
            order.append(v)
            for j in pre[v]:
                if readers[j]:
                    readers[j] -= 1
                    heappush(heap, (readers[j], -sizes[j], -j))
        order.reverse()
        return order

    def _walk(self, total: int):
        """The output mask and the successors of every code of the full product.

        A depth-first walk fixes the digits in :meth:`_nesting_order`.  A
        vertex's stripped moves depend on its own digit and its
        predecessors' digits only, so the fold computes them, and folds
        them into the prefix's partial successor set, once per prefix at
        the first level where all of those digits are fixed.  Each prefix
        carries its partial code, output mask and successor set; the last
        level writes one code's results per digit.  Every fold collapses
        coinciding successors, a single move's too: its label can cover the
        one bit in which two partial successors differ.
        """
        nest = self._nesting_order()
        n = len(nest)
        level = [0] * n
        for k, v in enumerate(nest):
            level[v] = k
        folds = [[] for _ in nest]  # per level: the vertices whose moves are fixed there
        for w, ps in enumerate(self.pre):
            folds[max([level[w], *map(level.__getitem__, ps)])].append(w)
        digit, out_of, fold = self.digit, self.out_of, self.fold
        outputs = [0] * total
        succ = [()] * total
        last, leaf_folds = nest[-1], folds[-1]
        leaf_outputs, leaf_weight = self.outputs[last], self.weights[last]
        # per level: the prefix above it, and the next digit to take there
        code_at, out_at, acc_at = [0] * n, [0] * n, [(0,)] * n
        nxt = [0] * n
        k = 0
        while k >= 0:
            if k == n - 1:
                code, out, acc = code_at[k], out_at[k], acc_at[k]
                for x, o in enumerate(leaf_outputs):
                    c = code + x * leaf_weight
                    outputs[c] = out | o
                    if acc:
                        digit[last], out_of[last] = x, o
                        succ[c] = tuple(fold(acc, leaf_folds))
                k -= 1
                continue
            v, x = nest[k], nxt[k]
            if x == len(self.state_ids[v]):
                nxt[k] = 0
                k -= 1
                continue
            nxt[k] = x + 1
            o = self.outputs[v][x]
            digit[v], out_of[v] = x, o
            code_at[k + 1] = code_at[k] + x * self.weights[v]
            out_at[k + 1] = out_at[k] | o
            acc = acc_at[k]
            acc_at[k + 1] = fold(acc, folds[k]) if acc else acc
            k += 1
        return outputs, succ

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
        others go through the fold, by :meth:`successors`.  States with a
        deadlocked machine state are never visited.
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
                total += len(self.successors(digits)) if n is None else n
        return total

    def assemble(self, codes, names, outputs, succ) -> CompositeFsm:
        """The expanded machine on the states ``codes``, from :meth:`explore`'s result.

        State names are sorted once and distinct label masks ranked once,
        by ``_label_key``.  Each transition gets one int key of source,
        label and target rank, in bit fields, and the keys are sorted once,
        so each tuple is built once and in canonical order, and
        ``model._fsm`` keeps them as they are.  ``succ`` is consumed: it is
        emptied once the keys are built, and the sorted keys are decoded
        into transitions in place, a slice at a time, so no transition is
        held in two forms at once.  ``parts`` is built last, from the
        product of the machines' states or from the codes.
        """
        low = (1 << self.shift) - 1
        high = ~low
        n = len(names)
        by_name = sorted(range(n), key=names.__getitem__)
        ordered = [names[i] for i in by_name]
        rank = sorted(range(n), key=by_name.__getitem__)  # per position: the rank of its name
        # per code: the rank of its name; a full expansion's codes are positions
        rank_of = rank if isinstance(codes, range) else dict(zip(codes, rank))
        initial = None if self.initial is None else ordered[rank_of[self.initial]]
        sets = cache(self.symbol_set)  # each distinct mask's frozenset is built once
        masks = sorted({p & high for found in succ for p in found}, key=lambda u: _label_key(sets(u)))
        label_of = list(map(sets, masks))
        tb = n.bit_length()  # key bits: source rank, then label rank, then target rank
        sb = tb + len(masks).bit_length()
        label_rank = {u: r << tb for r, u in enumerate(masks)}
        transitions = [
            s + label_rank[p & high] + rank_of[p & low]
            for s, i in zip(range(0, n << sb, 1 << sb), by_name)
            for p in succ[i]
        ]
        succ.clear()  # every transition is a key now
        del by_name, rank, rank_of, label_rank  # before the decode and _fsm, which set the peak
        transitions.sort()
        lm, tm = (1 << sb - tb) - 1, (1 << tb) - 1
        for i in range(0, len(transitions), _DECODE_SLICE):
            transitions[i:i + _DECODE_SLICE] = [
                (ordered[k >> sb], label_of[k >> tb & lm], ordered[k & tm])
                for k in transitions[i:i + _DECODE_SLICE]
            ]
        out_map = dict(zip(names, map(sets, outputs)))
        fsm_id, inputs, outputs = self.header
        fsm = _fsm(fsm_id, ordered, initial, inputs, outputs, out_map, transitions, label_of)
        del transitions, ordered  # the machine holds its own copies
        if isinstance(codes, range):
            parts = product(*self.state_ids)
        else:
            parts = self._parts(map(self.decode, codes))
        return CompositeFsm(fsm=fsm, vertex_order=self.order, parts=dict(zip(names, parts)))

    def minimal(self, codes, names, outputs, succ) -> Fsm:
        """The minimal machine of the states ``codes``, from :meth:`explore`'s result.

        With an initial state, ``codes`` are to be the states it reaches, as
        an accessible exploration finds them.  ``succ`` is left as it is.
        """
        low = (1 << self.shift) - 1
        high = ~low
        at = {c: i for i, c in enumerate(codes)}
        labels = {}  # shifted label mask -> label id
        moves = [[(labels.setdefault(p & high, len(labels)), at[p & low]) for p in s] for s in succ]
        start = None if self.initial is None else at[self.initial]
        return _minimal(*self.header, names, outputs, moves, start, labels, cache(self.symbol_set))


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

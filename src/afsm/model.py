"""Core domain types: Moore-style machines with set-valued labels, and arenas.

An ``Fsm`` is a tuple (states, initial, inputs, outputs, output map,
transitions) where every transition is labelled with a *set* of input
symbols and every state emits a *set* of output symbols.  The empty set is
a legal label (an internal step) and a legal output (an invisible state).

An ``Arena`` is a self-loop-free directed graph whose vertices each carry
an ``Fsm``.  Distinct vertices may share one machine definition.

All types are immutable after validation and canonically ordered, so that
serialization and downstream computations are deterministic.
"""

from __future__ import annotations

import gc
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, wraps
from typing import Iterable, Mapping, Optional

TOKEN_RE = re.compile(r"[A-Za-z0-9_.*'+-]+\Z")

# A symbol is an interned token string; a symbol set is a frozenset of them.
SymbolSet = frozenset
Transition = tuple  # (src, label: SymbolSet, dst)


class ModelError(ValueError):
    """Base class for all model validation errors."""


class EmptyStateSet(ModelError):
    pass


class BadInitial(ModelError):
    pass


class MissingState(ModelError):
    pass


class AlphabetViolation(ModelError):
    pass


class BadSymbol(ModelError):
    pass


class SelfLoop(ModelError):
    pass


class DanglingEdge(ModelError):
    pass


class UnknownMachine(ModelError):
    pass


def _token(kind: str, name: str, error=ModelError) -> str:
    """Validate one token and return it; the only reader of ``TOKEN_RE``.

    Ids are not interned: a machine's transitions share its declared id
    objects, and the interned-string table never shrinks.
    """
    if not isinstance(name, str) or not TOKEN_RE.match(name):
        raise error(f"invalid {kind} token: {name!r}")
    return name


def symbol(name: str) -> str:
    """Validate and intern a single symbol token."""
    return sys.intern(_token("symbol", name, BadSymbol))


def symbol_set(names: Iterable[str]) -> SymbolSet:
    """Validate and intern a set of symbol tokens."""
    return frozenset(symbol(n) for n in names)


def _label_key(label: SymbolSet) -> tuple:
    return tuple(sorted(label))


@dataclass(frozen=True)
class Fsm:
    """A canonically ordered finite state machine.

    :func:`validate_fsm` is the checked way to build one from a raw
    description: it checks every token, and hands the parts
    to :func:`_from_tokens`, which checks the rest.  ``formats.parse``,
    which checks every token at its line, calls :func:`_from_tokens`
    itself.  :func:`_fsm`, which trusts its arguments and puts them in
    canonical order, is the only code that calls this constructor.
    The hash covers only the id, the initial state and the alphabets, whose
    hashes CPython caches, so hashing a machine of any size is O(1).
    """

    id: str
    states: tuple = field(hash=False)
    initial: Optional[str]
    inputs: SymbolSet
    outputs: SymbolSet
    output_map: Mapping[str, SymbolSet] = field(hash=False)
    transitions: tuple = field(hash=False)  # of (src, label, dst), canonically sorted

    @cached_property
    def _succ(self) -> dict:
        succ = {s: [] for s in self.states}
        for src, label, dst in self.transitions:
            succ[src].append((label, dst))
        return succ

    def successors(self, state: str):
        """Outgoing (label, dst) pairs of ``state``."""
        return self._succ[state]

    def renamed(self, new_id: str, mapping: Mapping[str, str]) -> "Fsm":
        """Copy of this machine with states renamed through ``mapping``.

        A state left out of ``mapping``, or two states mapped to one name,
        raise :class:`ModelError`.
        """
        source = {}  # new name -> the state renamed to it
        for s in self.states:
            if s not in mapping:
                raise ModelError(f"fsm {self.id}: renaming leaves state {s!r} unmapped")
            new = _token("state id", mapping[s])
            other = source.setdefault(new, s)
            if other != s:
                raise ModelError(
                    f"fsm {self.id}: renaming maps states {other!r} and {s!r} to {new!r}"
                )
        return validate_fsm(
            new_id,
            source,
            self.inputs,
            self.outputs,
            {mapping[s]: out for s, out in self.output_map.items()},
            [(mapping[a], u, mapping[b]) for a, u, b in self.transitions],
            initial=None if self.initial is None else mapping[self.initial],
        )


def validate_fsm(
    fsm_id: str,
    states: Iterable[str],
    inputs: Iterable[str],
    outputs: Iterable[str],
    output_map: Mapping[str, Iterable[str]],
    transitions: Iterable[tuple],
    initial: Optional[str] = None,
) -> Fsm:
    """Validate a raw machine description and return a canonical ``Fsm``.

    Every id and symbol is checked here and every symbol interned, and
    every state referred to is looked up among the declared ones;
    :func:`_from_tokens` checks the rest and :func:`_fsm` puts the result
    in canonical order, so equal raw descriptions always produce identical
    machines.  Each distinct symbol set is checked once.
    """
    fsm_id = _token("fsm id", fsm_id)
    # an equal string -> the declared id, in id order
    declared = {s: s for s in sorted({_token("state id", s) for s in states})}
    inp = symbol_set(inputs)
    out = symbol_set(outputs)
    if initial is not None:
        initial = _token("state id", initial)
    seen = {}

    def checked(names) -> SymbolSet:
        key = names if isinstance(names, frozenset) else tuple(names)
        try:
            value = seen.get(key)
        except TypeError:  # an unhashable member, which symbol() rejects
            return symbol_set(key)
        if value is None:
            value = seen[key] = symbol_set(key)
        return value

    omap = {}
    for s in declared:
        if s not in output_map:
            raise MissingState(f"fsm {fsm_id}: no output set declared for state {s!r}")
        omap[s] = checked(output_map[s])
    for s in output_map:
        if s not in declared:
            _token("state id", s)
            raise MissingState(f"fsm {fsm_id}: output map mentions unknown state {s!r}")

    trans = []
    for src, label, dst in transitions:
        try:
            s, d = declared[src], declared[dst]
        except (KeyError, TypeError):  # not a declared state: find the first fault
            src = _token("state id", src)
            dst = _token("state id", dst)
            if src not in declared:
                raise MissingState(f"fsm {fsm_id}: transition source {src!r} is not declared")
            raise MissingState(f"fsm {fsm_id}: transition target {dst!r} is not declared")
        trans.append((s, checked(label), d))

    trans = tuple(trans)  # drops the list before the machine is built
    return _from_tokens(fsm_id, omap, initial, inp, out, omap, trans)


def _from_tokens(fsm_id, states, initial, inputs, outputs, output_map, transitions) -> Fsm:
    """An ``Fsm`` from parts whose tokens are already checked.

    The parts are trusted to be as :func:`validate_fsm` makes them:
    checked ids, distinct states that are exactly the keys of
    ``output_map``, frozensets of interned symbols, and a tuple of
    transition tuples between declared states, which the machine keeps
    if they are in canonical order.  Checked here is what
    tokens cannot show: that there is a state, that ``initial`` is
    declared, and that each distinct output set and label lies within its
    alphabet.  A violation names the least state id with such an output
    set, or the source of the first transition with such a label.
    """
    if not output_map:
        raise EmptyStateSet(f"fsm {fsm_id}: at least one state is required")
    if initial is not None and initial not in output_map:
        raise BadInitial(f"fsm {fsm_id}: initial state {initial!r} is not declared")
    if not frozenset().union(*set(output_map.values())) <= outputs:
        s = min(s for s, u in output_map.items() if not u <= outputs)
        extra = sorted(output_map[s] - outputs)
        raise AlphabetViolation(
            f"fsm {fsm_id}: output of state {s!r} uses undeclared symbols {extra}"
        )
    labels = {u for _, u, _ in transitions}
    if not frozenset().union(*labels) <= inputs:
        s, u, _ = next(t for t in transitions if not t[1] <= inputs)
        raise AlphabetViolation(
            f"fsm {fsm_id}: transition label of {s!r} uses undeclared symbols {sorted(u - inputs)}"
        )
    return _fsm(fsm_id, states, initial, inputs, outputs, output_map, transitions, labels)


def _fsm(fsm_id, states, initial, inputs, outputs, output_map, transitions, labels=None) -> Fsm:
    """The one trusted constructor: an ``Fsm`` in canonical order.

    The arguments are trusted to describe a valid machine: distinct state
    ids, and transitions in any order whose endpoints are among them.
    ``labels``, if given, are the distinct labels of the transitions, which
    a caller that has them passes so that they are not collected again.
    States are sorted by id, and each state and each distinct label is
    ranked once.  Transitions are ordered by (src, _label_key(label), dst).
    One scan, which stops at the first transition out of that order, keeps
    transitions that are already strictly in order, and so distinct, as
    given.  Other transitions are keyed by one packed int of source,
    label and target rank, and sorted once, so equal transitions collapse
    into one.  (Keys pass 2**30 where the states squared times the labels
    do, and such ints sort at about two thirds of the speed of smaller
    ones; grouping by source first costs a dict and a sort per state.)
    """
    states = sorted(states)
    transitions = tuple(transitions)
    if labels is None:
        labels = {u for _, u, _ in transitions}
    labels = sorted(labels, key=_label_key)
    n = len(states)
    rank = {s: r for r, s in enumerate(states)}
    label_rank = {u: r * n for r, u in enumerate(labels)}
    if not _in_order(transitions, rank, label_rank):
        stride = n * len(labels)  # above every label rank plus target rank
        keyed = {rank[t[0]] * stride + label_rank[t[1]] + rank[t[2]]: t for t in transitions}
        transitions = tuple(map(keyed.__getitem__, sorted(keyed)))
    return Fsm(fsm_id, tuple(states), initial, inputs, outputs, output_map, transitions)


def _in_order(transitions, rank, label_rank) -> bool:
    """Whether ``transitions`` are strictly in canonical order; stops at the first that is not.

    Sources are compared as ids, and ``""`` sorts below every id.  A
    source equal to the one before it but another object reads as out
    of order, which only costs the caller a sort.
    """
    last_src, last = "", -1
    for src, label, dst in transitions:
        key = label_rank[label] + rank[dst]
        if src is not last_src:
            if src <= last_src:
                return False
            last_src = src
        elif key <= last:
            return False
        last = key
    return True


def _index(m: Fsm, labels: dict, offset: int = 0):
    """The moves of ``m`` on integers, the one place all its states become positions.

    Returns, per position in ``m.states``, the list of its (label id,
    ``offset`` + target position) moves.  Each label is interned in
    ``labels``, which maps a label to its id and may be shared between
    machines, so that their label ids are comparable.  :func:`_reach`
    numbers only the states a walk reaches.
    """
    pos = {s: i for i, s in enumerate(m.states)}
    succ = [[] for _ in m.states]
    for src, label, dst in m.transitions:
        succ[pos[src]].append((labels.setdefault(label, len(labels)), offset + pos[dst]))
    return succ


def _reach(m: Fsm, labels: dict, offset: int = 0):
    """The states of ``m`` that its initial state reaches, and their moves on integers.

    This is the reachable part of ``m``, on which ``bisim.quotient`` and
    ``bisim.is_bisimilar`` refine.  With no initial state every state
    counts as reached.  States are numbered from ``offset`` in the order
    the walk reaches them, the initial state first, and only their
    transitions are read: those of ``s`` start where bisection puts
    ``(s,)``, a probe that never compares labels (``<`` on frozensets is
    subset order).  Returns the reached states and, per position, its
    (label id, ``offset`` + target position) moves, with labels interned
    in ``labels`` as by :func:`_index`.
    """
    trans = m.transitions
    found = list(m.states) if m.initial is None else [m.initial]
    at = dict(zip(found, range(offset, offset + len(found))))
    succ = []
    for s in found:  # grows as the walk reaches new states
        moves = []
        i = bisect_left(trans, (s,))
        while i < len(trans) and trans[i][0] == s:
            _, label, dst = trans[i]
            n = offset + len(found)
            d = at.setdefault(dst, n)
            if d == n:
                found.append(dst)
            moves.append((labels.setdefault(label, len(labels)), d))
            i += 1
        succ.append(moves)
    return found, succ


@dataclass(frozen=True)
class Arena:
    """A validated arena: vertices carrying machines, self-loop-free edges."""

    id: str
    vertices: tuple  # of (vertex_id, Fsm), sorted by vertex id
    edges: tuple  # of (src_vertex, dst_vertex), sorted

    @property
    def vertex_ids(self) -> tuple:
        return tuple(v for v, _ in self.vertices)


def validate_arena(
    arena_id: str,
    vertices: Mapping[str, Fsm],
    edges: Iterable[tuple],
) -> Arena:
    """Validate a raw arena description against a library of machines.

    Every id is checked here, each just before :func:`_arena` reads it,
    so the first fault of the description is the one reported;
    :func:`_arena` checks the rest.
    """
    return _arena(
        _token("arena id", arena_id),
        ((_token("vertex id", v), fsm) for v, fsm in vertices.items()),
        ((_token("vertex id", a), _token("vertex id", b)) for a, b in edges),
    )


def _arena(arena_id, vertices, edges) -> Arena:
    """An ``Arena`` from (vertex, machine) and (source, target) pairs of checked ids.

    Checked here is what ids cannot show: that each vertex carries a
    machine, that there is a vertex, and that each edge joins two distinct
    vertices.  Equal edges collapse into one.  ``formats.parse``, which
    checks every id at its line, calls this itself.
    """
    vmap = {}
    for v, fsm in vertices:
        if not isinstance(fsm, Fsm):
            raise UnknownMachine(f"arena {arena_id}: vertex {v!r} has no machine attached")
        vmap[v] = fsm
    if not vmap:
        raise ModelError(f"arena {arena_id}: at least one vertex is required")

    edge_set = set()
    for a, b in edges:
        if a == b:
            raise SelfLoop(f"arena {arena_id}: self-loop on vertex {a!r}")
        if a not in vmap:
            raise DanglingEdge(f"arena {arena_id}: edge source {a!r} is not a vertex")
        if b not in vmap:
            raise DanglingEdge(f"arena {arena_id}: edge target {b!r} is not a vertex")
        edge_set.add((a, b))

    ordered_vertices = tuple(sorted(vmap.items()))
    return Arena(arena_id, ordered_vertices, tuple(sorted(edge_set)))


def paused_gc(fn):
    """Run ``fn`` with the cyclic garbage collector off.

    Expansion and refinement allocate millions of ints and tuples that
    cannot form cycles, and each collection the allocations trigger scans
    them all; reference counting still frees them.  The caller's
    ``gc.isenabled()`` state is restored on every exit.  A plain wrapper
    costs a tenth of a ``contextmanager``, which matters on small arenas.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused

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
from operator import itemgetter
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
    """Validate and intern one token; the only reader of ``TOKEN_RE``."""
    if not isinstance(name, str) or not TOKEN_RE.match(name):
        raise error(f"invalid {kind} token: {name!r}")
    return sys.intern(name)


def symbol(name: str) -> str:
    """Validate and intern a single symbol token."""
    return _token("symbol", name, BadSymbol)


def symbol_set(names: Iterable[str]) -> SymbolSet:
    """Validate and intern a set of symbol tokens."""
    return frozenset(symbol(n) for n in names)


def _label_key(label: SymbolSet) -> tuple:
    return tuple(sorted(label))


@dataclass(frozen=True)
class Fsm:
    """A canonically ordered finite state machine.

    :func:`validate_fsm` is the checked way to build one from a raw
    description.  :func:`_fsm`, which trusts its arguments and puts them
    in canonical order, is the only code that calls this constructor.
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

    Every check runs here, and :func:`_fsm` puts the result in canonical
    order, so equal raw descriptions always produce identical machines.
    Nothing already canonical is copied.  A frozenset label or output set
    that passes its checks comes back as given, and a later set equal to it
    comes back as that first one.  A transition tuple whose endpoints are
    the declared id objects and whose label comes back as given is kept.
    """
    fsm_id = _token("fsm id", fsm_id)
    state_list = sorted({_token("state id", s) for s in states})
    if not state_list:
        raise EmptyStateSet(f"fsm {fsm_id}: at least one state is required")
    declared = {s: s for s in state_list}  # an equal string -> the interned id

    inp = symbol_set(inputs)
    out = symbol_set(outputs)

    def within(alphabet, where):
        # each distinct set is validated, interned and checked against
        # ``alphabet`` once per call
        seen = {}

        def check(names, state) -> SymbolSet:
            key = names if isinstance(names, frozenset) else tuple(names)
            try:
                value = seen.get(key)
            except TypeError:  # an unhashable member, which symbol() rejects
                return symbol_set(key)
            if value is None:
                value = symbol_set(key)
                extra = value - alphabet
                if extra:
                    raise AlphabetViolation(
                        f"fsm {fsm_id}: {where} {state!r} uses undeclared symbols {sorted(extra)}"
                    )
                if value == key:  # a checked frozenset is kept, not copied
                    value = key
                seen[key] = value
            return value

        return check

    if initial is not None:
        initial = _token("state id", initial)
        if initial not in declared:
            raise BadInitial(f"fsm {fsm_id}: initial state {initial!r} is not declared")

    output_of = within(out, "output of state")
    omap = {}
    for s in state_list:
        if s not in output_map:
            raise MissingState(f"fsm {fsm_id}: no output set declared for state {s!r}")
        omap[s] = output_of(output_map[s], s)
    for s in output_map:
        if s not in declared:
            _token("state id", s)
            raise MissingState(f"fsm {fsm_id}: output map mentions unknown state {s!r}")

    label_of = within(inp, "transition label of")
    trans = []
    for t in transitions:
        src, label, dst = t
        try:
            s, d = declared[src], declared[dst]
        except (KeyError, TypeError):  # not a declared state: find the first fault
            src = _token("state id", src)
            dst = _token("state id", dst)
            if src not in declared:
                raise MissingState(f"fsm {fsm_id}: transition source {src!r} is not declared")
            if dst not in declared:
                raise MissingState(f"fsm {fsm_id}: transition target {dst!r} is not declared")
        u = label_of(label, s)
        if s is src and u is label and d is dst and type(t) is tuple:
            trans.append(t)  # already canonical
        else:
            trans.append((s, u, d))

    return _fsm(fsm_id, state_list, initial, inp, out, omap, trans)


def _fsm(fsm_id, states, initial, inputs, outputs, output_map, transitions) -> Fsm:
    """The one trusted constructor: an ``Fsm`` in canonical order.

    The arguments are trusted to describe a valid machine: distinct state
    ids, and transitions in any order whose endpoints are among them.
    States are sorted by id, and each state and each distinct label is
    ranked once.  Transitions are ordered by (src, _label_key(label), dst).
    One scan, which stops at the first transition out of that order, keeps
    transitions that are already strictly in order, and so distinct, as
    given.  Other transitions are grouped by source, and keyed within a
    source by one packed int of label rank and target rank, so equal
    transitions collapse into one.  (Packing the source too gives a large
    machine keys above 2**30, which sort about twice as slowly.)
    """
    states = sorted(states)
    transitions = tuple(transitions)
    labels = sorted({u for _, u, _ in transitions}, key=_label_key)
    n = len(states)
    rank = {s: r for r, s in enumerate(states)}
    label_rank = {u: r * n for r, u in enumerate(labels)}
    if not _in_order(transitions, rank, label_rank):
        moves = [{} for _ in states]  # per source rank: packed key -> transition
        for t in transitions:
            moves[rank[t[0]]][label_rank[t[1]] + rank[t[2]]] = t
        transitions = tuple([m[k] for m in moves for k in sorted(m)])
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


def _index(m: Fsm, labels: dict, offset: int = 0, lazy: bool = False):
    """The moves of ``m`` on integers, the one place states become positions.

    Returns, per position in ``m.states``, the list of its (label id,
    ``offset`` + target position) moves.  Each label is interned in
    ``labels``, which maps a label to its id and may be shared between
    machines, so that their label ids are comparable.  With ``lazy``, a
    function from a position to its list is returned, which reads only
    that state's transitions, found by bisection.
    """
    pos = {s: offset + i for i, s in enumerate(m.states)}
    if lazy:
        states, trans = m.states, m.transitions

        def moves(p):
            s = states[p]
            i = bisect_left(trans, s, key=itemgetter(0))
            found = []
            while i < len(trans) and trans[i][0] == s:
                _, label, dst = trans[i]
                found.append((labels.setdefault(label, len(labels)), pos[dst]))
                i += 1
            return found

        return moves
    succ = {s: [] for s in m.states}  # in the order of ``m.states``
    for src, label, dst in m.transitions:
        succ[src].append((labels.setdefault(label, len(labels)), pos[dst]))
    return list(succ.values())


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
    """Validate a raw arena description against a library of machines."""
    arena_id = _token("arena id", arena_id)
    if not vertices:
        raise ModelError(f"arena {arena_id}: at least one vertex is required")
    vmap = {}
    for v, fsm in vertices.items():
        v = _token("vertex id", v)
        if not isinstance(fsm, Fsm):
            raise UnknownMachine(f"arena {arena_id}: vertex {v!r} has no machine attached")
        vmap[v] = fsm

    edge_set = set()
    for a, b in edges:
        a = _token("vertex id", a)
        b = _token("vertex id", b)
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

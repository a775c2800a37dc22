"""Core domain types: Moore-style machines with set-valued labels, and arenas.

An ``Fsm`` is a tuple (states, initial, inputs, outputs, output map,
transitions) where every transition is labelled with a *set* of input
symbols and every state emits a *set* of output symbols.  The empty set is
a legal label (an internal step) and a legal output (an invisible state).

An ``Arena`` is a self-loop-free directed graph whose vertices each carry
an ``Fsm``.  Distinct vertices may share one machine definition.

All types are immutable after validation and canonically ordered, so that
serialization and downstream computations are deterministic.  A machine's
transitions are grouped by source, in state order, and the machine keeps
the index of each state's first transition, which the code that put the
transitions in order hands over (:func:`_fsm`); :func:`_reach`, the one
walk that turns a machine's states into integers, reads them.

Inside ``with record() as entries:`` each :func:`stage` call appends to ``entries``
its ``stage`` name, ``depth``, ``total_s``, ``self_s`` (less its inner stages), and sizes.
"""

from __future__ import annotations

import gc
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from time import perf_counter
from typing import Iterable, Mapping, Optional

TOKEN_RE = re.compile(r"[A-Za-z0-9_.*'+-]+\Z")

# A symbol is an interned token string; a symbol set is a frozenset of them.
SymbolSet = frozenset
Transition = tuple  # (src, label: SymbolSet, dst)
_entries = _open = None  # the open record's entries, and its running stages' inner totals


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


def stage(name: str, sizes=None):
    """Run the decorated function as the stage ``name``, with the cyclic collector off.

    Stages make millions of acyclic ints and tuples that a collection scans in vain;
    the caller's state is restored on exit.  A :func:`record` adds ``sizes(result, *args)``.
    """

    def wrap(fn):
        @wraps(fn)
        def staged(*args, **kwargs):  # a plain wrapper: a tenth of a contextmanager's cost
            if gc.isenabled():
                gc.disable()
                try:
                    return fn(*args, **kwargs) if _entries is None else staged(*args, **kwargs)
                finally:
                    gc.enable()
            if _entries is None:
                return fn(*args, **kwargs)
            _entries.append(entry := {"stage": name, "depth": len(_open) - 1})
            _open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry["total_s"] = total = perf_counter() - start
                entry["self_s"] = total - _open.pop()  # less the totals of its inner stages
                _open[-1] += total
            entry.update(sizes(result, *args) if sizes else ())
            return result

        return staged

    return wrap


@contextmanager
def record():
    """``with record() as entries:`` appends an entry per stage call inside to ``entries``."""
    global _entries, _open
    _entries, _open = [], [0.0]  # records do not nest
    try:
        yield _entries
    finally:
        _entries = None


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
    """Validate and intern a set of symbol tokens; a str is not a set of its characters."""
    if isinstance(names, str):
        raise BadSymbol(f"expected a set of symbols, got the string {names!r}")
    return frozenset(symbol(n) for n in names)


def _label_key(label: SymbolSet) -> tuple:
    return tuple(sorted(label))


@dataclass(frozen=True, init=False)
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
    ``_starts`` maps each state to the index of its first transition; a
    state without one maps to an index at which a reader finds no
    transition of it.  It takes no part in equality, hash or repr, and
    ``dataclasses.replace`` copies it as it is.
    """

    id: str
    states: tuple = field(hash=False)
    initial: Optional[str]
    inputs: SymbolSet
    outputs: SymbolSet
    output_map: Mapping[str, SymbolSet] = field(hash=False)
    transitions: tuple = field(hash=False)  # of (src, label, dst), canonically sorted
    _starts: Mapping[str, int] = field(hash=False, compare=False, repr=False)

    def __init__(self, id, states, initial, inputs, outputs, output_map, transitions, _starts):
        # one store of the instance dict: a frozen dataclass's own __init__ makes
        # a guarded store per field, at twice the cost
        object.__setattr__(self, "__dict__", {
            "id": id, "states": states, "initial": initial, "inputs": inputs, "outputs": outputs,
            "output_map": output_map, "transitions": transitions, "_starts": _starts,
        })

    def successors(self, state: str):
        """Outgoing (label, dst) pairs of ``state``, in canonical order."""
        trans, i = self.transitions, self._starts[state]
        moves = []
        while i < len(trans) and trans[i][0] == state:
            moves.append(trans[i][1:])
            i += 1
        return moves

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


@stage("validate_fsm")
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
    if isinstance(states, str):
        raise ModelError(f"fsm {fsm_id}: expected a set of state ids, got the string {states!r}")
    # an equal string -> the declared id, in id order
    declared = {s: s for s in sorted({_token("state id", s) for s in states})}
    inp = symbol_set(inputs)
    out = symbol_set(outputs)
    if initial is not None:
        initial = _token("state id", initial)
    seen = {}

    def checked(names) -> SymbolSet:
        key = names if isinstance(names, (frozenset, str)) else tuple(names)  # symbol_set: no str
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


def _fsm(fsm_id, states, initial, inputs, outputs, output_map, transitions, labels=None,
         starts=None) -> Fsm:
    """The one trusted constructor: an ``Fsm`` in canonical order.

    The arguments are trusted to describe a valid machine: distinct state
    ids, and transitions in any order whose endpoints are among them.
    ``labels``, if given, are the distinct labels of the transitions, which
    a caller that has them passes so that they are not collected again.
    A caller that has put the states in id order and the transitions in
    canonical order, without repeats, passes ``starts``, each state's index
    of its first transition as :class:`Fsm` keeps it, and the machine is
    built from its arguments as they are.  Otherwise states are sorted by
    id and transitions ordered by (src, _label_key(label), dst): one scan,
    which stops at the first transition out of that order, keeps
    transitions that are already strictly in order, and so distinct, as
    given, and records where each source starts.  Other transitions are
    keyed by one packed int of source, label and target rank, and sorted
    once, so equal transitions collapse into one; the rank of each source
    then gives way to the index of its first transition.  (Keys pass 2**30
    where the states squared times the labels do, and such ints sort at
    about two thirds of the speed of smaller ones; grouping by source
    first costs a dict and a sort per state.)
    """
    if starts is None:
        states = sorted(states)
        transitions = tuple(transitions)
        if labels is None:
            labels = {u for _, u, _ in transitions}
        n = len(states)
        # ranked by their sorted members, which compare as _label_key's tuples do
        label_rank = {u: r * n for r, u in enumerate(sorted(labels, key=sorted))}
        starts = _in_order(transitions, label_rank)
        if starts is None:
            starts = rank = {s: r for r, s in enumerate(states)}
            stride = n * len(label_rank)  # above every label rank plus target rank
            keyed = {rank[t[0]] * stride + label_rank[t[1]] + rank[t[2]]: t for t in transitions}
            transitions = tuple(map(keyed.__getitem__, sorted(keyed)))
            for i in range(len(transitions) - 1, -1, -1):  # so each source keeps its first index
                rank[transitions[i][0]] = i
        elif len(starts) < n:  # a state without transitions starts at the end, where none is
            for s in states:
                starts.setdefault(s, len(transitions))
    return Fsm(fsm_id, tuple(states), initial, inputs, outputs, output_map, tuple(transitions), starts)


def _in_order(transitions, label_rank):
    """Each source -> the index of its first transition, if ``transitions`` are
    strictly in canonical order; None from the first transition that is not.

    Sources and targets are compared as ids, and ``""`` sorts below every
    id.  A source equal to the one before it but another object reads as
    out of order, which only costs the caller a sort.
    """
    starts = {}
    last_src, last_rank, last_dst = "", -1, ""
    for i, (src, label, dst) in enumerate(transitions):
        r = label_rank[label]
        if src is not last_src:
            if src <= last_src:
                return None
            starts[src] = i
            last_src = src
        elif r < last_rank or r == last_rank and dst <= last_dst:
            return None
        last_rank, last_dst = r, dst
    return starts


def _reach(m: Fsm, labels: dict, offset: int = 0, every: bool = False):
    """The states of ``m`` that its initial state reaches, and their moves on integers.

    This is the one walk that turns a machine's states into positions,
    numbered from ``offset``.  With ``every``, or with no initial state,
    every state counts as reached, in ``m.states`` order, and the
    transitions are read in one pass, a source's moves gathered while it
    lasts; ``bisim._blocks``, ``bisim._isomorphism`` and
    ``expand._Expander`` read a machine so.  Otherwise it is the part of
    ``m`` that ``bisim.quotient`` and ``bisim.is_bisimilar`` refine,
    numbered in the order the walk reaches it, the initial state first, and
    only its transitions are read: those of ``s`` run from ``m._starts[s]``
    while their source is ``s``.  Returns the reached states and, per
    position, its (label id, ``offset`` + target position) moves.  Each
    label is interned in ``labels``, which maps a label to its id and may be
    shared between machines, so that their label ids are comparable.
    """
    trans = m.transitions
    if every or m.initial is None:
        found = m.states
        at = {s: i for i, s in enumerate(m.states, offset)}
        succ = [[] for _ in found]
        src = label = None
        for s, u, d in trans:
            if u is not label:  # a run of one label is interned once
                label, lab = u, labels.setdefault(u, len(labels))
            if s is not src:
                src, moves = s, succ[at[s] - offset]
            moves.append((lab, at[d]))
        return found, succ
    starts, end = m._starts, len(trans)
    found = [m.initial]
    at = {m.initial: offset}
    succ = []
    for s in found:  # grows as the walk reaches new states
        moves = []
        i = starts[s]
        while i < end:
            src, label, dst = trans[i]
            if src != s:
                break
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

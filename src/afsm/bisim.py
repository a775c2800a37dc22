"""Bisimulation equivalence: maximal relation, decision, quotient, isomorphism.

Every question is answered by one partition refinement on the integer
moves that ``model._index`` gives: of the disjoint union of the machines
involved, or, where initial states decide the answer, of only the part
of it that they reach.  States start grouped by output set.  The
well-founded states, whose every path ends in a state with no move, are
classed first in one backward pass from those states, as Dovier, Piazza &
Policriti (TCS 2004) do, at a cost of O(n + m) for n states and m
transitions; no other state is bisimilar to one of them.  On the other
states, signature passes split blocks by their outgoing (label,
target-block) sets while each pass at least doubles the number of blocks,
and the splitter-based algorithm of Paige & Tarjan (SIAM J. Comput. 1987)
takes over from there, so that part costs O(m log n).  The peel and the
signature passes key a state in one of three forms, so that the states
of chains, which have at most one move each, build no set: a state with
no move by its block alone, an int; one whose moves give a single
distinct (label, class) pair by the flat tuple (block, label, class);
and any other by (block, frozenset of its pairs).  An int, a 3-tuple and
a 2-tuple never compare equal, and moves that collapse to one pair are
keyed as that pair, so two states share a key iff their sets do.
Two states are bisimilar iff they share a block, so R*, the verdict on
machines without initial states and the self-partition are read off the
block ids that :func:`_blocks` returns.  ``model._reach`` gives the
reachable part of a machine, the states its initial state reaches and
their moves: :func:`is_bisimilar` of two machines with initial states
refines only the two machines' reachable parts, as on-the-fly checking
does.  :func:`_minimal` refines a machine given on integers and builds its
minimal machine, each block named after its least member;
:func:`quotient` hands it the reachable part, and
``expand._Expander.minimal`` the explored part of a product.
:func:`_isomorphism` uses the same refinement, on moves read both ways:
it pairs one state of each machine by hand and refines again, depth
first, until every block is one pair.  A brute-force greatest-fixpoint
oracle over the dense pair table is provided for cross-checking.
"""

from __future__ import annotations

from .model import Fsm, _fsm, _index, _reach, paused_gc

_ISO_GUARD = 12


class BisimError(ValueError):
    pass


class InitialStateMismatch(BisimError):
    """One machine declares an initial state and the other does not."""


class TooLarge(BisimError):
    """Input exceeds the dense pair-table guard of the oracle."""


class TooLargeForGeneralIso(BisimError):
    """A block holds more states than the isomorphism search is guarded for."""


def _refine(n_states, outputs, succ):
    """Partition states 0..n-1 by bisimilarity.

    ``outputs[s]`` is the output set of state ``s``; ``succ[s]`` is a list
    of (label_id, target) pairs.  Returns a list mapping state -> block id.

    States start grouped by output set.  Where some state has no move,
    :func:`_peel` classes the well-founded states, those with no path into
    a cycle, in O(n + m) for m transitions, and hands only the others to
    :func:`_stabilise`, which refines them in O(m log n).  Both key a state
    by its block and its set of (label, class) pairs in the cheapest of
    three forms that never compare equal: the block alone, an int, for a
    state with no move; (block, label, class) for a state whose moves,
    however many, give one pair; (block, frozenset of pairs) otherwise.
    """
    by_output = {}
    block = [by_output.setdefault(out, len(by_output)) for out in outputs]
    if not all(succ):
        return _peel(n_states, block, succ)
    return _stabilise(range(n_states), block, len(by_output), succ)


def _stabilise(states, block, n_blocks, succ, k=0):
    """Refine ``block`` until stable; ``states`` hold ``n_blocks`` of its blocks, ids k onwards.

    Every other state keeps its block, which is to be stable already.
    A signature pass splits every block by the set of (label, block) pairs
    its states can move to, at a cost of O(m), and the partition is stable
    once a pass splits nothing.  Passes repeat while each one at least
    doubles the number of blocks, so there are at most log2(n) of them;
    most small machines, and wide ones such as expanded arenas, are stable
    after two.  Every state passed over has a move, since :func:`_peel`
    classes the states without one, so a signature is either the flat
    (block, label, block) of a state whose moves give one pair, or the
    2-tuple (block, frozenset of pairs) of any other: a 3-tuple never
    equals a 2-tuple, and collapsing moves to their one pair keeps
    bisimilar states together.  A pass that splits less hands over to
    :func:`_split_until_stable`, which finishes in O(m log n) time on
    inputs that would need one pass per state.
    """
    while True:
        by_sig = {}
        finer = block[:]
        for s in states:
            moves = succ[s]
            if len(moves) == 1:
                lab, d = moves[0]
                sig = (block[s], lab, block[d])
            else:
                sig = frozenset([(lab, block[d]) for lab, d in moves])
                if len(sig) == 1:
                    (pair,) = sig
                    sig = (block[s], *pair)
                else:
                    sig = (block[s], sig)
            finer[s] = k + by_sig.setdefault(sig, len(by_sig))
        if len(by_sig) == n_blocks:
            return block
        if len(by_sig) < 2 * n_blocks:
            return _split_until_stable(succ, block, finer)
        block, n_blocks = finer, len(by_sig)


def _peel(n_states, block, succ):
    """:func:`_refine` of states 0..n-1, first grouped into ``block``.

    The well-founded states are those whose every path ends in a state
    with no move; on them bisimilarity is decided bottom-up, as in
    Dovier, Piazza & Policriti, "An efficient algorithm for computing
    bisimulation equivalence" (TCS 2004).  They are peeled backwards from
    the states with no move: a state is classed once every state it moves
    to is, by its block and the set of (label, class) pairs it can move
    to, so the pass costs O(n + m).  That key is the block alone, an int,
    for a state with no move, (block, label, class) for one whose moves
    give a single pair and (block, frozenset of pairs) for any other; the
    three shapes never compare equal, so no set is built on a chain.  A
    well-founded state has no infinite path and every other state has
    one, so no class mixes the two kinds and the classes are final.  :func:`_stabilise` refines every other
    state in place, from its block, and passes over those states alone:
    classes take ids 0..k-1 and the rest's blocks k onwards.
    """
    pred = [[] for _ in range(n_states)]
    for s, moves in enumerate(succ):
        for _, d in moves:
            pred[d].append(s)
    left = list(map(len, succ))  # moves into states not yet classed
    ready = [s for s in range(n_states) if not left[s]]
    cls = [None] * n_states
    by_key = {}
    for s in ready:  # grows while it is read
        moves = succ[s]
        if not moves:
            key = block[s]
        elif len(moves) == 1:
            lab, d = moves[0]
            key = (block[s], lab, cls[d])
        else:
            key = frozenset([(lab, cls[d]) for lab, d in moves])
            if len(key) == 1:
                (pair,) = key
                key = (block[s], *pair)
            else:
                key = (block[s], key)
        cls[s] = by_key.setdefault(key, len(by_key))
        for p in pred[s]:
            left[p] -= 1
            if not left[p]:
                ready.append(p)
    if len(ready) == n_states:
        return cls
    rest = [s for s in range(n_states) if cls[s] is None]
    k, by_block = len(by_key), {}
    for s in rest:
        cls[s] = k + by_block.setdefault(block[s], len(by_block))
    return _stabilise(rest, cls, len(by_block), succ, k)


def _split_until_stable(succ, coarse, block):
    """Paige-Tarjan refinement of ``block`` to the coarsest stable partition.

    Paige & Tarjan, "Three partition refinement algorithms" (SIAM J.
    Comput. 1987), for labelled moves.  Besides the partition into blocks
    it keeps a coarser partition into *compounds*, starting from
    ``coarse``, the partition one signature pass before ``block``.  The
    blocks are stable with respect to every compound: for each label, a
    block's states all have a move into the compound or none does.  While
    some compound holds two or more blocks, the smaller of two of them, B,
    becomes a compound of its own and every block is split twice per label
    a: by "has an a-move into B" and by "has an a-move into B but none into
    the rest of the old compound".  The second split is what makes this
    correct for nondeterministic machines; it reads a count of a-moves per
    (state, label, compound), so it costs no more than the first.  Both
    only touch the moves into B, and a state is in the chosen B at most
    log2(n) times, since each time the compound holding it at least
    halves: O(m log n) in all.

    ``block`` is updated in place and returned.
    """
    n = len(block)
    # moves into each state, as label * n + source; ``count`` maps
    # compound * stride + label * n + source to the number of such moves
    # into the compound, and drops keys that reach zero
    pred = [[] for _ in range(n)]
    n_labels = 0
    for x in range(n):
        for lab, d in succ[x]:
            pred[d].append(lab * n + x)
            if lab >= n_labels:
                n_labels = lab + 1
    stride = n_labels * n
    count = {}
    for d in range(n):
        base = coarse[d] * stride
        for code in pred[d]:
            key = base + code
            count[key] = count.get(key, 0) + 1

    # blocks are slices [first[b], end[b]) of ``elems``; the states at
    # [first[b], mid[b]) are marked for splitting off
    elems = sorted(range(n), key=block.__getitem__)
    loc = [0] * n
    n_blocks = max(block) + 1
    end = [0] * n_blocks
    for i, s in enumerate(elems):
        loc[s] = i
        end[block[s]] = i + 1
    first = [0] + end[:-1]
    mid = first[:]
    compound = [coarse[elems[first[b]]] for b in range(n_blocks)]
    members = [[] for _ in range(max(coarse) + 1)]
    for b in range(n_blocks):
        members[compound[b]].append(b)
    work = [c for c, bs in enumerate(members) if len(bs) > 1]

    def split_off(states):
        # split every block into its members in ``states`` and the rest
        touched = []
        for s in states:
            b = block[s]
            i = loc[s]
            j = mid[b]
            if i >= j:
                if j == first[b]:
                    touched.append(b)
                t = elems[j]
                elems[j] = s
                elems[i] = t
                loc[s] = j
                loc[t] = i
                mid[b] = j + 1
        for b in touched:
            j = mid[b]
            f = first[b]
            if j == end[b]:
                mid[b] = f
                continue
            nb = len(first)
            first.append(f)
            end.append(j)
            mid.append(f)
            first[b] = j
            for s in elems[f:j]:
                block[s] = nb
            c = compound[b]
            compound.append(c)
            blocks = members[c]
            blocks.append(nb)
            if len(blocks) == 2:
                work.append(c)

    while work:
        c = work.pop()
        blocks = members[c]
        b = blocks.pop()
        if end[b] - first[b] > end[blocks[-1]] - first[blocks[-1]]:
            b, blocks[-1] = blocks[-1], b
        if len(blocks) > 1:
            work.append(c)
        new = len(members)
        members.append([b])
        compound[b] = new

        by_label = {}
        for y in elems[first[b]:end[b]]:
            for code in pred[y]:
                by_label.setdefault(code // n, []).append(code)
        old_base = c * stride
        new_base = new * stride
        for codes in by_label.values():
            for code in codes:
                key = old_base + code
                left = count[key] - 1
                if left:
                    count[key] = left
                else:
                    del count[key]
                key = new_base + code
                count[key] = count.get(key, 0) + 1
            split_off([code % n for code in codes])
            split_off([code % n for code in codes if old_base + code not in count])
    return block


def _minimal(fsm_id, inputs, outputs, names, keys, succ, initial, labels, as_set) -> Fsm:
    """The minimal machine of states 0..n-1, given on integers.

    State ``p`` is named ``names[p]``, has output key ``keys[p]`` and the
    (label id, state) moves ``succ[p]``, where ``labels`` maps each label
    key to its id; ``initial`` is a state or None.  ``as_set`` turns an
    output or label key into its frozenset.  Each block of the refinement
    is represented by its member of least name, and only the
    representatives' sets and transitions are built.
    """
    block = _refine(len(names), keys, succ)
    least = {}  # block -> its representative
    for p in sorted(range(len(names)), key=names.__getitem__):
        least.setdefault(block[p], p)
    rep = [names[least[b]] for b in block]
    label = list(map(as_set, labels))
    trans = [(names[p], label[lab], rep[d]) for p in least.values() for lab, d in succ[p]]
    out_map = {names[p]: as_set(keys[p]) for p in least.values()}
    start = None if initial is None else rep[initial]
    return _fsm(fsm_id, out_map, start, inputs, outputs, out_map, trans)


@paused_gc
def _blocks(*machines) -> list:
    """Refine the disjoint union of ``machines`` once.

    Labels are interned across all machines, so block ids are comparable
    between them.  Returns, per machine, a dict state -> block id; two
    states (of the same or of different machines) are bisimilar iff their
    block ids are equal.
    """
    labels = {}
    outputs = []
    succ = []
    for m in machines:
        succ += _index(m, labels, len(outputs))
        outputs += map(m.output_map.__getitem__, m.states)
    # one iterator over the block ids: each machine's zip takes its own states' share
    block = iter(_refine(len(outputs), outputs, succ))
    return [dict(zip(m.states, block)) for m in machines]


def _pairs(b1: dict, b2: dict) -> frozenset:
    """R* as state pairs, read off the block ids of two machines."""
    by_block = {}
    for s, b in b2.items():
        by_block.setdefault(b, []).append(s)
    return frozenset((s1, s2) for s1, b in b1.items() for s2 in by_block.get(b, ()))


def _check_initials(m1: Fsm, m2: Fsm) -> None:
    """Reject two machines of which only one declares an initial state.

    The two acceptance conditions differ, so mixed presence has no verdict;
    callers check it before they refine anything.
    """
    if (m1.initial is None) != (m2.initial is None):
        raise InitialStateMismatch(
            f"{m1.id} and {m2.id} disagree on declaring an initial state"
        )


def _verdict(m1: Fsm, m2: Fsm, b1: dict, b2: dict) -> bool:
    """m1 = m2 up to bisimulation, given their block ids in one refinement.

    With initial states on both sides the verdict is membership of the
    initial pair in R*; with no initial states anywhere it is totality of
    R*, i.e. both machines occupy the same set of blocks.  The caller has
    ruled out mixed presence with :func:`_check_initials`.
    """
    if m1.initial is not None:
        return b1[m1.initial] == b2[m2.initial]
    return set(b1.values()) == set(b2.values())


def max_bisimulation(m1: Fsm, m2: Fsm) -> frozenset:
    """The maximal bisimulation relation R*(m1, m2) as a set of state pairs.

    Two states are related iff they end up in the same block of the
    refined partition of the disjoint union.
    """
    return _pairs(*_blocks(m1, m2))


def self_partition(m: Fsm) -> tuple:
    """Blocks of the maximal self-bisimulation R*(m, m), canonically ordered.

    Blocks are frozensets of state ids, sorted by their least member.
    """
    (block,) = _blocks(m)
    groups = {}
    for s, b in block.items():
        groups.setdefault(b, []).append(s)
    return tuple(sorted(map(frozenset, groups.values()), key=min))


def naive_bisim_oracle(m1: Fsm, m2: Fsm, guard: int = 10**6) -> frozenset:
    """Greatest-fixpoint reference implementation over the dense pair table.

    Starts from all output-compatible pairs and deletes pairs whose
    transitions cannot be matched, until nothing changes.  Independent of
    the partition-refinement path; used as its oracle in tests.
    """
    if len(m1.states) * len(m2.states) > guard:
        raise TooLarge(
            f"{len(m1.states)} x {len(m2.states)} pairs exceed the oracle guard {guard}"
        )
    rel = {
        (s1, s2)
        for s1 in m1.states
        for s2 in m2.states
        if m1.output_map[s1] == m2.output_map[s2]
    }
    changed = True
    while changed:
        changed = False
        for s1, s2 in list(rel):
            ok = all(
                any(u1 == u2 and (d1, d2) in rel for u2, d2 in m2.successors(s2))
                for u1, d1 in m1.successors(s1)
            ) and all(
                any(u1 == u2 and (d1, d2) in rel for u1, d1 in m1.successors(s1))
                for u2, d2 in m2.successors(s2)
            )
            if not ok:
                rel.discard((s1, s2))
                changed = True
    return frozenset(rel)


@paused_gc
def is_bisimilar(m1: Fsm, m2: Fsm) -> bool:
    """Decide m1 = m2 up to bisimulation.

    The initial pair must be in R*; with no initial states anywhere, R*
    must be total.  Mixed presence raises :class:`InitialStateMismatch`
    before anything is refined.  With two initial states only the part of
    the disjoint union that they reach decides, as in the on-the-fly
    checking of Fernandez & Mounier ("On the fly verification of
    behavioural equivalences and preorders", CAV 1991): ``model._reach``
    gives each machine's reachable part, the second numbered after the
    first, and only those positions are refined.
    """
    _check_initials(m1, m2)
    if m1.initial is None:
        return _verdict(m1, m2, *_blocks(m1, m2))
    labels = {}
    names1, succ1 = _reach(m1, labels)
    n1 = len(names1)
    names2, succ2 = _reach(m2, labels, n1)
    outputs = [*map(m1.output_map.__getitem__, names1), *map(m2.output_map.__getitem__, names2)]
    block = _refine(len(outputs), outputs, succ1 + succ2)
    return block[0] == block[n1]


@paused_gc
def quotient(m: Fsm) -> Fsm:
    """The minimal machine bisimilar to ``m``.

    A machine with an initial state is first restricted to its reachable
    part (an unreachable state can always be dropped from a bisimilar
    machine, so a minimal one has none), whose transitions alone are read.
    States are then the blocks of the maximal self-bisimulation; each block
    is named after its lexicographically least member, so the result is
    deterministic.
    """
    labels = {}
    names, succ = _reach(m, labels)
    keys = list(map(m.output_map.__getitem__, names))
    initial = None if m.initial is None else 0
    # the keys are the sets, which frozenset() returns as they are
    return _minimal(m.id, m.inputs, m.outputs, names, keys, succ, initial, labels, frozenset)


@paused_gc
def _isomorphism(m1: Fsm, m2: Fsm) -> dict | None:
    """A state bijection m1 -> m2 that preserves initial, outputs and moves.

    Individualisation-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", J. Symbolic Comput. 2014) on the disjoint union of
    the two machines, whose moves are read forwards and, under labels of
    their own, backwards.  States start coloured by (output set, is
    initial) and :func:`_refine` makes the colouring stable.  An
    isomorphism keeps each state in the block of its image, so a block
    with unequal shares of the two machines refutes the colouring.  A
    stable colouring whose blocks are all pairs is an isomorphism: the
    pair of a state has a move onto the pair of each of its targets.
    Otherwise the first m1 state of the smallest open block is paired with
    each m2 state of that block in turn, by giving both a colour of their
    own, and refined again, depth first.  A first refinement with a block
    of more than ``_ISO_GUARD`` states of one machine raises
    :class:`TooLargeForGeneralIso`.
    """
    n = len(m1.states)
    if n != len(m2.states) or (m1.initial is None) != (m2.initial is None):
        return None
    labels = {}
    forward = _index(m1, labels) + _index(m2, labels, n)
    moves = [list(out) for out in forward]
    back = len(labels)
    for s, out in enumerate(forward):
        for lab, d in out:
            moves[d].append((back + lab, s))
    # depth first, on colourings still to refine: a colouring, and the
    # pair to give colour -1 on a copy of it
    work = [([(m.output_map[s], s == m.initial) for m in (m1, m2) for s in m.states], ())]
    while work:
        colour, pair = work.pop()
        if pair:
            colour = colour[:]
            colour[pair[0]] = colour[pair[1]] = -1
        block = _refine(2 * n, colour, moves)
        cells = {}  # block id -> (its m1 positions, its m2 positions)
        for p, b in enumerate(block):
            cells.setdefault(b, ([], []))[p >= n].append(p)
        if any(len(a) != len(b) for a, b in cells.values()):
            continue
        # each colouring refines the first, so only the first can fire this
        largest = max(len(a) for a, _ in cells.values())
        if largest > _ISO_GUARD:
            raise TooLargeForGeneralIso(
                f"block of {largest} states exceeds the backtracking guard {_ISO_GUARD}"
            )
        open_cells = [cell for cell in cells.values() if len(cell[0]) > 1]
        if not open_cells:
            return {m1.states[a[0]]: m2.states[b[0] - n] for a, b in cells.values()}
        ours, theirs = min(open_cells, key=lambda cell: len(cell[0]))
        work += [(block, (ours[0], t)) for t in reversed(theirs)]  # first tried first
    return None


def is_isomorphic(m1: Fsm, m2: Fsm) -> bool:
    """Decide whether a state bijection preserves initial, outputs and moves.

    See :func:`_isomorphism`, which finds the bijection.
    """
    return _isomorphism(m1, m2) is not None

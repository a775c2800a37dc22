"""Bisimulation equivalence: maximal relation, decision, quotient, isomorphism.

Every question is answered by one partition refinement of the disjoint
union of the machines involved.  States start grouped by output set;
signature passes split blocks by their outgoing (label, target-block)
sets while each pass at least doubles the number of blocks, and the
splitter-based algorithm of Paige & Tarjan (SIAM J. Comput. 1987) takes
over from there, so the whole refinement costs O(m log n) for n states
and m transitions.  Two states are bisimilar iff they share a block, so
R*, the bisimilarity verdict, the self-partition and the isomorphism
candidate are all read off the block ids that :func:`_blocks` returns.  A
brute-force greatest-fixpoint oracle over the dense pair table is provided
for cross-checking.
"""

from __future__ import annotations

from typing import Optional

from .model import Fsm, _fsm, _label_key, paused_gc


class BisimError(ValueError):
    pass


class InitialStateMismatch(BisimError):
    """One machine declares an initial state and the other does not."""


class TooLarge(BisimError):
    """Input exceeds the dense pair-table guard of the oracle."""


class TooLargeForGeneralIso(BisimError):
    """Backtracking isomorphism guard exceeded on a non-minimal machine."""


def _refine(n_states, outputs, succ):
    """Partition states 0..n-1 by bisimilarity.

    ``outputs[s]`` is the output set of state ``s``; ``succ[s]`` is a list
    of (label_id, target) pairs.  Returns a list mapping state -> block id.

    States start grouped by output set.  A signature pass splits every
    block by the set of (label, block) pairs its states can move to, at a
    cost of O(m) for m transitions, and the partition is stable once a pass
    splits nothing.  Passes repeat while each one at least doubles the
    number of blocks, so there are at most log2(n) of them; most small
    machines, and wide ones such as expanded arenas, are stable after two.
    A pass that splits less hands over to :func:`_split_until_stable`,
    which finishes in O(m log n) time on inputs, such as long chains, that
    would need one pass per state.
    """
    by_output = {}
    block = [by_output.setdefault(out, len(by_output)) for out in outputs]
    n_blocks = len(by_output)
    while True:
        by_sig = {}
        finer = [
            by_sig.setdefault(
                (block[s], frozenset((lab, block[d]) for lab, d in succ[s])), len(by_sig)
            )
            for s in range(n_states)
        ]
        if len(by_sig) == n_blocks:
            return block
        if len(by_sig) < 2 * n_blocks:
            return _split_until_stable(succ, block, finer)
        block, n_blocks = finer, len(by_sig)


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
    offsets = []
    for m in machines:
        off = len(outputs)
        idx = {s: off + i for i, s in enumerate(m.states)}
        outputs += [m.output_map[s] for s in m.states]
        succ += [[] for _ in m.states]
        for src, label, dst in m.transitions:
            succ[idx[src]].append((labels.setdefault(label, len(labels)), idx[dst]))
        offsets.append(off)
    block = _refine(len(outputs), outputs, succ)
    return [
        dict(zip(m.states, block[off:off + len(m.states)]))
        for m, off in zip(machines, offsets)
    ]


def _pairs(b1: dict, b2: dict) -> frozenset:
    """R* as state pairs, read off the block ids of two machines."""
    by_block = {}
    for s, b in b2.items():
        by_block.setdefault(b, []).append(s)
    return frozenset((s1, s2) for s1, b in b1.items() for s2 in by_block.get(b, ()))


def _verdict(m1: Fsm, m2: Fsm, b1: dict, b2: dict) -> bool:
    """m1 = m2 up to bisimulation, given their block ids in one refinement.

    With initial states on both sides the verdict is membership of the
    initial pair in R*; with no initial states anywhere it is totality of
    R*, i.e. both machines occupy the same set of blocks.  Mixed presence
    is rejected, since the two acceptance conditions differ.
    """
    if (m1.initial is None) != (m2.initial is None):
        raise InitialStateMismatch(
            f"{m1.id} and {m2.id} disagree on declaring an initial state"
        )
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


def is_bisimilar(m1: Fsm, m2: Fsm) -> bool:
    """Decide m1 = m2 up to bisimulation.

    The initial pair must be in R*; with no initial states anywhere, R*
    must be total.  Mixed presence raises :class:`InitialStateMismatch`.
    """
    return _verdict(m1, m2, *_blocks(m1, m2))


def _accessible_part(m: Fsm) -> Fsm:
    """The sub-machine on the states reachable from the initial state."""
    if m.initial is None:
        return m
    seen = {m.initial}
    frontier = [m.initial]
    while frontier:
        nxt = []
        for s in frontier:
            for _, dst in m.successors(s):
                if dst not in seen:
                    seen.add(dst)
                    nxt.append(dst)
        frontier = nxt
    if len(seen) == len(m.states):
        return m
    out_map = {s: m.output_map[s] for s in seen}
    trans = (t for t in m.transitions if t[0] in seen)
    return _fsm(m.id, seen, m.initial, m.inputs, m.outputs, out_map, trans)


def quotient(m: Fsm) -> Fsm:
    """The minimal machine bisimilar to ``m``.

    A machine with an initial state is first restricted to its reachable
    part (an unreachable state can always be dropped from a bisimilar
    machine, so a minimal one has none).  States are then the blocks of
    the maximal self-bisimulation; each block is named after its
    lexicographically least member, so the result is deterministic.
    """
    m = _accessible_part(m)
    blocks = self_partition(m)
    rep = {}
    for b in blocks:
        name = min(b)
        for s in b:
            rep[s] = name
    out_map = {min(b): m.output_map[min(b)] for b in blocks}
    initial = None if m.initial is None else rep[m.initial]
    # a set: many transitions collapse onto one between blocks
    trans = {(rep[src], label, rep[dst]) for src, label, dst in m.transitions}
    return _fsm(m.id, out_map, initial, m.inputs, m.outputs, out_map, trans)


def _iso_candidate_check(m1: Fsm, m2: Fsm, mapping: dict) -> bool:
    """Verify that ``mapping`` is an isomorphism witness."""
    if len(mapping) != len(m1.states) or len(set(mapping.values())) != len(m2.states):
        return False
    if m1.initial is not None and mapping[m1.initial] != m2.initial:
        return False
    for s in m1.states:
        if m1.output_map[s] != m2.output_map[mapping[s]]:
            return False
    t2 = set(m2.transitions)
    if len(m1.transitions) != len(m2.transitions):
        return False
    return all((mapping[a], u, mapping[b]) in t2 for a, u, b in m1.transitions)


def _general_iso(m1: Fsm, m2: Fsm, guard: int) -> bool:
    """Backtracking isomorphism search with output-class pruning."""
    by_out1 = {}
    by_out2 = {}
    for s in m1.states:
        by_out1.setdefault(m1.output_map[s], []).append(s)
    for s in m2.states:
        by_out2.setdefault(m2.output_map[s], []).append(s)
    if set(by_out1) != set(by_out2):
        return False
    for out, grp in by_out1.items():
        if len(grp) != len(by_out2[out]):
            return False
        if len(grp) > guard:
            raise TooLargeForGeneralIso(
                f"output class of size {len(grp)} exceeds the backtracking guard {guard}"
            )

    def degree_key(m, s):
        return tuple(sorted(_label_key(u) for u, _ in m.successors(s)))

    order = sorted(m1.states, key=lambda s: len(by_out1[m1.output_map[s]]))
    mapping = {}
    used = set()

    def feasible(s1, s2):
        # partial-map consistency: already-mapped successors must be matched
        for u, d in m1.successors(s1):
            if d in mapping and not any(
                u == u2 and mapping[d] == d2 for u2, d2 in m2.successors(s2)
            ):
                return False
        return True

    def candidates(s1):
        # lazily filtered, so ``used`` and ``mapping`` are read when the
        # search comes back to this position, not when it first arrives
        return (
            s2
            for s2 in by_out2[m1.output_map[s1]]
            if s2 not in used
            and (m1.initial is None or (s1 == m1.initial) == (s2 == m2.initial))
            and degree_key(m1, s1) == degree_key(m2, s2)
            and feasible(s1, s2)
        )

    # depth-first search with an explicit stack of candidate iterators,
    # one per assigned position of ``order``
    stack = [candidates(order[0])]
    while stack:
        s1 = order[len(stack) - 1]
        if s1 in mapping:
            used.discard(mapping.pop(s1))
        s2 = next(stack[-1], None)
        if s2 is None:
            stack.pop()
            continue
        mapping[s1] = s2
        used.add(s2)
        if len(stack) < len(order):
            stack.append(candidates(order[len(stack)]))
        elif _iso_candidate_check(m1, m2, mapping):
            return True
    return False


def is_isomorphic(m1: Fsm, m2: Fsm, guard: int = 12) -> bool:
    """Decide whether a state bijection preserves initial, outputs and edges.

    One refinement of m1 + m2 settles the common case.  An isomorphism is
    a bisimulation, so it maps each state into its own block; when each
    machine's states fall in distinct blocks (both are self-minimal) the
    R* pairing is the only candidate and is verified directly.  Otherwise
    a backtracking search with output-class pruning is used, guarded by
    ``guard`` states per output class.
    """
    if len(m1.states) != len(m2.states):
        return False
    if (m1.initial is None) != (m2.initial is None):
        return False

    b1, b2 = _blocks(m1, m2)
    state_in = {b: s for s, b in b2.items()}
    if len(state_in) == len(m2.states) == len(set(b1.values())):
        if any(b not in state_in for b in b1.values()):
            return False
        return _iso_candidate_check(m1, m2, {s: state_in[b] for s, b in b1.items()})

    return _general_iso(m1, m2, guard)

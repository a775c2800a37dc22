"""Seeded input generators for the benchmark, independent of the library.

Machines and arenas are plain records here and are written out as `.afsm`
text by :func:`emit`, so the program under test only ever receives files.
Every generator takes a ``random.Random``; the same seed gives the same text.
State ids never contain ``.``, so composite state names stay unambiguous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace


@dataclass
class Machine:
    name: str
    inputs: tuple
    outputs: tuple
    states: dict  # state id -> tuple of output symbols
    initial: str | None
    trans: list  # (src, label tuple, dst)


@dataclass
class Net:
    name: str
    nodes: dict  # vertex id -> machine name
    edges: list = field(default_factory=list)


def _set(symbols) -> str:
    return "{" + ",".join(symbols) + "}"


def emit(machines, nets, rng) -> str:
    """`.afsm` text of the machines then the arenas, in seeded line order."""
    machines = list(machines)
    rng.shuffle(machines)
    out = []
    for m in machines:
        states = list(m.states.items())
        trans = list(m.trans)
        rng.shuffle(states)
        rng.shuffle(trans)
        out.append(f"fsm {m.name}")
        out.append(f"  inputs {_set(m.inputs)}")
        out.append(f"  outputs {_set(m.outputs)}")
        out += [f"  state {s} {_set(o)}" for s, o in states]
        if m.initial is not None:
            out.append(f"  initial {m.initial}")
        out += [f"  trans {a} {_set(u)} {b}" for a, u, b in trans]
        out.append("end")
    for n in nets:
        nodes = list(n.nodes.items())
        edges = list(n.edges)
        rng.shuffle(nodes)
        rng.shuffle(edges)
        out.append(f"arena {n.name}")
        out += [f"  node {v} {m}" for v, m in nodes]
        out += [f"  edge {a} {b}" for a, b in edges]
        out.append("end")
    return "\n".join(out) + "\n"


def _names(rng, prefix, keys):
    """A seeded injective map from ``keys`` to short fresh tokens."""
    keys = sorted(keys)
    nums = rng.sample(range(1, 4 * len(keys) + 10), len(keys))
    return {k: f"{prefix}{n}" for k, n in zip(keys, nums)}


def rename(machines, nets, rng):
    """Consistently rename machines, states, symbols and vertices.

    Every name-independent fact (sizes, class numbers, verdicts) is
    preserved.  State ids become distinct integers, as in the shipped
    fixtures.  Arena names are kept, so that jobs can address them.
    """
    symbols = set()
    for m in machines:
        symbols.update(m.inputs, m.outputs)
    sym = _names(rng, "z", symbols)
    mname = _names(rng, "F", [m.name for m in machines])
    total = sum(len(m.states) for m in machines)
    ids = iter(rng.sample(range(1, 3 * total + 10), total))
    renamed = []
    for m in machines:
        st = {s: str(next(ids)) for s in m.states}
        renamed.append(Machine(
            mname[m.name],
            tuple(sorted(sym[s] for s in m.inputs)),
            tuple(sorted(sym[s] for s in m.outputs)),
            {st[s]: tuple(sorted(sym[o] for o in out)) for s, out in m.states.items()},
            None if m.initial is None else st[m.initial],
            [(st[a], tuple(sorted(sym[x] for x in u)), st[b]) for a, u, b in m.trans],
        ))
    vertices = set()
    for n in nets:
        vertices.update(n.nodes)
    vx = _names(rng, "v", vertices)
    new_nets = [
        Net(
            n.name,
            {vx[v]: mname[m] for v, m in n.nodes.items()},
            [(vx[a], vx[b]) for a, b in n.edges],
        )
        for n in nets
    ]
    return renamed, new_nets


def restrict(net: Net, keep, name: str) -> Net:
    """The sub-arena on the vertices in ``keep``."""
    keep = set(keep)
    return Net(
        name,
        {v: m for v, m in net.nodes.items() if v in keep},
        [(a, b) for a, b in net.edges if a in keep and b in keep],
    )


def from_document(doc):
    """Plain records of a parsed library document (used once, on a fixture)."""
    machines = [
        Machine(
            f.id,
            tuple(sorted(f.inputs)),
            tuple(sorted(f.outputs)),
            {s: tuple(sorted(f.output_map[s])) for s in f.states},
            f.initial,
            [(a, tuple(sorted(u)), b) for a, u, b in f.transitions],
        )
        for f in doc.fsms.values()
    ]
    nets = [
        Net(name, dict(doc.arena_nodes[name]), list(arena.edges))
        for name, arena in doc.arenas.items()
    ]
    return machines, nets


# -- chains: the worst case of signature refinement ---------------------------

def chain(name: str, n: int, clones: int = 0, rng=None) -> Machine:
    """A chain ``0 -> 1 -> ... -> n-1`` on one input symbol.

    Only the last state outputs ``end``, so state ``i`` is told apart from
    the others only by its distance to the end: the quotient has exactly
    ``n`` states and refinement needs ``n`` rounds.  ``clones`` extra states
    copy distinct chain states (same output, same move); about half of the
    copied state's incoming moves are redirected to its clone, so the
    quotient still has ``n`` states.
    """
    states = {f"c{i}": ("end",) if i == n - 1 else () for i in range(n)}
    trans = [(f"c{i}", ("a",), f"c{i + 1}") for i in range(n - 1)]
    if clones:
        for i in rng.sample(range(1, n), clones):
            clone = f"d{i}"
            states[clone] = states[f"c{i}"]
            if i < n - 1:
                trans.append((clone, ("a",), f"c{i + 1}"))
            if rng.random() < 0.5:
                trans.remove((f"c{i - 1}", ("a",), f"c{i}"))
                trans.append((f"c{i - 1}", ("a",), clone))
    return Machine(name, ("a",), ("end",), states, "c0", trans)


# -- small random arenas, the shape of the acceptance campaigns ---------------

def random_machine(rng, name, max_states=4, max_inputs=2, max_outputs=2, max_trans=6):
    n = rng.randint(1, max_states)
    states = [f"s{i}" for i in range(n)]
    inputs = tuple(f"a{i}" for i in range(rng.randint(0, max_inputs)))
    outputs = tuple(f"y{i}" for i in range(rng.randint(0, max_outputs)))
    out = {s: tuple(sorted(rng.sample(outputs, rng.randint(0, len(outputs))))) for s in states}
    trans = set()
    for _ in range(rng.randint(0, max_trans)):
        label = tuple(sorted(rng.sample(inputs, rng.randint(0, len(inputs)))))
        trans.add((rng.choice(states), label, rng.choice(states)))
    return Machine(name, inputs, outputs, out, states[0], sorted(trans))


def bloated(rng, m: Machine, name: str) -> Machine:
    """A bisimilar but larger copy of ``m``: one state gets a clone."""
    victim = rng.choice(sorted(m.states))
    states = dict(m.states)
    states["dup"] = m.states[victim]
    trans = list(m.trans) + [("dup", u, d) for s, u, d in m.trans if s == victim]
    trans = [
        (s, u, "dup" if d == victim and rng.random() < 0.5 else d) for s, u, d in trans
    ]
    return replace(m, name=name, states=states, trans=trans)


def random_net(rng, name, pool, nv, edge_p=0.3):
    nodes = {f"v{i}": rng.choice(pool).name for i in range(nv)}
    edges = [
        (a, b) for a, b in itertools.permutations(sorted(nodes), 2) if rng.random() < edge_p
    ]
    return Net(name, nodes, edges)


def campaign_template(rng, k: int):
    """One small campaign case: arena ``a`` and a partner arena ``b``.

    The partner is independent (k % 3 == 0), an isomorphic copy with
    renamed machines (1) or a copy whose machines each carry one cloned
    state (2); the last two are compositionally bisimilar to ``a`` by
    construction.
    """
    nv = rng.randint(1, 4)
    pool = [random_machine(rng, f"m{i}") for i in range(rng.randint(1, nv))]
    a = random_net(rng, "a", pool, nv)
    if k % 3 == 0:
        nv = rng.randint(1, 4)
        pool_b = [random_machine(rng, f"n{i}") for i in range(rng.randint(1, nv))]
        b = random_net(rng, "b", pool_b, nv)
    else:
        used = sorted(set(a.nodes.values()))
        by_name = {m.name: m for m in pool}
        if k % 3 == 1:
            pool_b = [replace(by_name[m], name=f"{m}r") for m in used]
        else:
            pool_b = [bloated(rng, by_name[m], f"{m}r") for m in used]
        b = Net("b", {f"w{v}": f"{m}r" for v, m in a.nodes.items()},
                [(f"w{x}", f"w{y}") for x, y in a.edges])
    used_a = set(a.nodes.values())
    used_b = set(b.nodes.values())
    machines = [m for m in pool if m.name in used_a] + [m for m in pool_b if m.name in used_b]
    return machines, [a, b]


# -- large networks with a known compositional verdict -----------------------

def cycle_shape(name: str, length: int) -> Machine:
    """A ring of ``length`` states; only state 0 outputs ``y``.

    Rings of different lengths are pairwise non-bisimilar.
    """
    states = {f"r{i}": ("y",) if i == 0 else () for i in range(length)}
    trans = [(f"r{i}", ("t",), f"r{(i + 1) % length}") for i in range(length)]
    return Machine(name, ("t",), ("y",), states, "r0", trans)


def network(rng, n: int, shapes: int, out_degree: int = 2):
    """A random ``n``-vertex arena over ``shapes`` ring machines, each used."""
    machines = [cycle_shape(f"K{j}", j + 2) for j in range(shapes)]
    kinds = [j % shapes for j in range(n)]
    rng.shuffle(kinds)
    nodes = {f"u{i}": f"K{kinds[i]}" for i in range(n)}
    edges = set()
    for i in range(n):
        for j in rng.sample([j for j in range(n) if j != i], out_degree):
            edges.add((f"u{i}", f"u{j}"))
    return machines, Net("net", nodes, sorted(edges))


def odd_one_out(machines, net: Net, shapes: int):
    """``net`` with one vertex given a ring length that no other vertex has.

    Its machine class is absent from the original arena, so the two arenas
    are not compositionally bisimilar.
    """
    odd = cycle_shape("Kodd", shapes + 2)
    nodes = dict(net.nodes)
    nodes[sorted(nodes)[0]] = "Kodd"
    return machines + [odd], Net(net.name, nodes, list(net.edges))

"""The `.afsm` textual model format, canonical serialization and DOT export.

One directive per line; ``#`` starts a comment, blank lines are ignored.

    fsm <name>
      inputs {<sym>,...}
      outputs {<sym>,...}
      state <id> {<output-sym>,...}
      initial <id>
      trans <src> {<sym>,...} <dst>
    end
    arena <name>
      node <vertex-id> <fsm-name>
      edge <vertex-id> <vertex-id>
    end

A symbol set is one token: ``{a,b}`` is read, ``{a, b}`` is not.

Canonical output sorts everything (definitions by name, states and
transitions lexicographically, set members alphabetically), uses UTF-8,
LF line endings and two-space indentation, so serialization is a fixpoint
of parse-then-serialize.

:func:`parse` reads a str or an open text file a block at a time, splits
each block into lines and releases them once read, so it holds a large
machine once and never the whole text of a file.  A transition holds the
id objects its ``state`` lines declared and the one checked frozenset of
its label text, and :func:`~afsm.model.validate_fsm` keeps such a tuple
as it is, and keeps transitions read in canonical order in that order.
:func:`serialize` joins blocks of lines that the CLI writes to a file one
at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, partial
from operator import itemgetter
from typing import TextIO

from .model import (
    Arena,
    Fsm,
    MissingState,
    ModelError,
    _token,
    paused_gc,
    symbol_set,
    validate_arena,
    validate_fsm,
)

_SET_RE = re.compile(r"\{([^{}]*)\}\Z")
_BLOCK = 1 << 16  # characters read at a time
_LINES = 1 << 10  # lines written at a time


class FormatError(ModelError):
    """A parse error carrying the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateName(FormatError):
    pass


class MissingStateAtLine(FormatError, MissingState):
    """Undeclared state referenced by a transition directive."""


@dataclass
class ModelDocument:
    """An ordered collection of machine and arena definitions."""

    fsms: dict = field(default_factory=dict)  # name -> Fsm
    arenas: dict = field(default_factory=dict)  # name -> Arena
    source: str | None = field(default=None, compare=False)

    @property
    def arena_nodes(self) -> dict:
        """Arena name -> {vertex: name of the machine it carries}."""
        return {
            name: {v: fsm.id for v, fsm in arena.vertices}
            for name, arena in self.arenas.items()
        }


def _at(line_no: int, check, *args):
    """``check(*args)``, with a model error reported at ``line_no``."""
    try:
        return check(*args)
    except ModelError as exc:
        raise FormatError(str(exc), line_no) from exc


def _parse_set(tok: str, line_no: int) -> frozenset:
    m = _SET_RE.match(tok)
    if not m:
        raise FormatError(f"expected a symbol set like {{a,b}}, got {tok!r}", line_no)
    body = m.group(1)  # a token holds no whitespace
    return _at(line_no, symbol_set, body.split(",") if body else [])


def _lines(text):
    """The lines of a str or an open text file, as ``str.splitlines`` numbers them.

    The text is read ``_BLOCK`` characters at a time, cut after the last
    ``\\n`` read and split, and the rest is carried into the next read,
    so the lines of a large document are never all held at once.
    ``\\r\\n`` is the only line break longer than one character, so no
    break straddles a cut.
    """
    if isinstance(text, str):
        blocks = (text[i:i + _BLOCK] for i in range(0, len(text), _BLOCK))
    else:
        blocks = iter(partial(text.read, _BLOCK), "")
    rest = ""
    for block in blocks:
        cut = block.rfind("\n") + 1
        if cut:
            yield from (rest + block[:cut]).splitlines()
            rest = block[cut:]
        else:
            rest += block
    yield from rest.splitlines()


def parse(text: str | TextIO, source: str | None = None) -> ModelDocument:
    """Parse a document from a str or an open text file.

    Raises ``FormatError`` with a line number on failure.
    """
    return _parse(text, source)


@paused_gc
def _parse(text, source):
    """:func:`parse`, which the CLI calls with an open file."""
    doc = ModelDocument(source=source)
    block = None  # None | ("fsm", name, acc) | ("arena", name, acc)
    ids = None  # while an fsm block is open: each declared state id -> itself

    @cache  # each distinct set text is checked once, at the line that first reads it
    def symbols(tok: str) -> frozenset:
        return _parse_set(tok, line_no)

    for line_no, line in enumerate(_lines(text), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        # tokens are runs of non-space; sets keep their braces as one token
        toks = line.split()
        if not toks:
            continue
        kw = toks[0]

        # the directive of most lines, so it is dispatched first; the
        # transition holds the declared id objects, not the line's copies
        if kw == "trans" and ids is not None:
            if len(toks) != 4:
                raise FormatError("'trans' takes source, label set, target", line_no)
            _, src, label, dst = toks
            try:
                src, dst = ids[src], ids[dst]
            except KeyError:  # a declared state is a valid token, so only a miss is checked
                _at(line_no, _token, "state id", src)
                _at(line_no, _token, "state id", dst)
                side, sid = ("source", src) if src not in ids else ("target", dst)
                raise MissingStateAtLine(
                    f"transition {side} {sid!r} is not a declared state", line_no
                ) from None
            trans.append((src, symbols(label), dst))
            continue

        if kw in ("fsm", "arena"):
            if block is not None:
                raise FormatError(f"'{kw}' inside an open block; missing 'end'?", line_no)
            if len(toks) != 2:
                raise FormatError(f"'{kw}' takes exactly one name", line_no)
            name = _at(line_no, _token, f"{kw} name", toks[1])
            if name in doc.fsms or name in doc.arenas:
                raise DuplicateName(f"duplicate definition of {name!r}", line_no)
            if kw == "fsm":
                ids, trans = {}, []
                block = ("fsm", name, {
                    "inputs": None, "outputs": None, "states": {},
                    "initial": None, "line": line_no,
                })
            else:
                block = ("arena", name, {"nodes": {}, "edges": [], "line": line_no})
            continue

        if block is None:
            raise FormatError(f"directive {kw!r} outside any block", line_no)

        kind, name, acc = block

        if kw == "end":
            if len(toks) != 1:
                raise FormatError("'end' takes no arguments", line_no)
            try:
                if kind == "fsm":
                    doc.fsms[name] = validate_fsm(
                        name,
                        acc["states"].keys(),
                        acc["inputs"] or [],
                        acc["outputs"] or [],
                        acc["states"],
                        trans,
                        initial=acc["initial"],
                    )
                else:
                    vertices = {v: doc.fsms[n] for v, n in acc["nodes"].items()}
                    doc.arenas[name] = validate_arena(name, vertices, acc["edges"])
            except ModelError as exc:
                raise FormatError(str(exc), acc["line"]) from exc
            block = ids = trans = None
            continue

        if kind == "fsm":
            if kw in ("inputs", "outputs"):
                if len(toks) != 2:
                    raise FormatError(f"'{kw}' takes one symbol set", line_no)
                if acc[kw] is not None:
                    raise FormatError(f"duplicate '{kw}' directive", line_no)
                acc[kw] = symbols(toks[1])
            elif kw == "state":
                if len(toks) != 3:
                    raise FormatError("'state' takes an id and an output set", line_no)
                sid = _at(line_no, _token, "state id", toks[1])
                if sid in acc["states"]:
                    raise DuplicateName(f"duplicate state {sid!r}", line_no)
                acc["states"][sid] = symbols(toks[2])
                ids[sid] = sid
            elif kw == "initial":
                if len(toks) != 2:
                    raise FormatError("'initial' takes one state id", line_no)
                if acc["initial"] is not None:
                    raise FormatError("at most one 'initial' directive is allowed", line_no)
                acc["initial"] = _at(line_no, _token, "state id", toks[1])
            else:
                raise FormatError(f"unknown directive {kw!r} in fsm block", line_no)
        else:
            if kw == "node":
                if len(toks) != 3:
                    raise FormatError("'node' takes a vertex id and a machine name", line_no)
                vid = _at(line_no, _token, "vertex id", toks[1])
                if vid in acc["nodes"]:
                    raise DuplicateName(f"duplicate vertex {vid!r}", line_no)
                fsm_name = _at(line_no, _token, "machine name", toks[2])
                # blocks do not nest, so every machine an arena can use is
                # already defined when its node line is read
                if fsm_name not in doc.fsms:
                    raise FormatError(
                        f"arena {name!r}: unknown machine {fsm_name!r}", line_no
                    )
                acc["nodes"][vid] = fsm_name
            elif kw == "edge":
                if len(toks) != 3:
                    raise FormatError("'edge' takes two vertex ids", line_no)
                acc["edges"].append(tuple(_at(line_no, _token, "vertex id", v) for v in toks[1:]))
            else:
                raise FormatError(f"unknown directive {kw!r} in arena block", line_no)

    if block is not None:
        raise FormatError(f"unterminated {block[0]} block {block[1]!r}", line_no)
    return doc


def _fmt_set(symbols) -> str:
    return "{" + ",".join(sorted(symbols)) + "}"


def _serialized_fsm(fsm: Fsm):
    """The canonical text of ``fsm``, a block of lines at a time, ending with ``end``."""
    sets = {fsm.inputs, fsm.outputs, *fsm.output_map.values()}
    sets.update(map(itemgetter(1), fsm.transitions))
    text = {u: _fmt_set(u) for u in sets}  # each distinct set is formatted once
    out = fsm.output_map
    yield f"fsm {fsm.id}\n  inputs {text[fsm.inputs]}\n  outputs {text[fsm.outputs]}\n"
    for i in range(0, len(fsm.states), _LINES):
        yield "".join([f"  state {s} {text[out[s]]}\n" for s in fsm.states[i:i + _LINES]])
    if fsm.initial is not None:
        yield f"  initial {fsm.initial}\n"
    trans = fsm.transitions
    for i in range(0, len(trans), _LINES):
        yield "".join([f"  trans {a} {text[u]} {b}\n" for a, u, b in trans[i:i + _LINES]])
    yield "end"


def serialize_fsm(fsm: Fsm) -> str:
    return "".join(_serialized_fsm(fsm))


def serialize_arena(arena: Arena) -> str:
    lines = [f"arena {arena.id}"]
    for v, fsm in arena.vertices:
        lines.append(f"  node {v} {fsm.id}")
    for a, b in arena.edges:
        lines.append(f"  edge {a} {b}")
    lines.append("end")
    return "\n".join(lines)


def _serialized(doc: ModelDocument):
    """The canonical text of ``doc``, a block of lines at a time."""
    definitions = [_serialized_fsm(doc.fsms[name]) for name in sorted(doc.fsms)]
    definitions += [[serialize_arena(doc.arenas[name])] for name in sorted(doc.arenas)]
    for k, blocks in enumerate(definitions):
        if k:
            yield "\n\n"
        yield from blocks
    yield "\n"


def serialize(doc: ModelDocument) -> str:
    """Canonical textual form of a document (a parse/serialize fixpoint)."""
    return "".join(_serialized(doc))


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', r"\"") + '"'


def export_dot(obj) -> str:
    """Render a machine or an arena as a GraphViz digraph."""
    if isinstance(obj, Fsm):
        lines = [f"digraph {_dot_quote(obj.id)} {{", "  rankdir=LR;"]
        for s in obj.states:
            label = f"{s} / {_fmt_set(obj.output_map[s])}"
            lines.append(f"  {_dot_quote(s)} [label={_dot_quote(label)}];")
        if obj.initial is not None:
            lines.append('  __start__ [shape=point, label=""];')
            lines.append(f"  __start__ -> {_dot_quote(obj.initial)};")
        for src, label, dst in obj.transitions:
            lines.append(
                f"  {_dot_quote(src)} -> {_dot_quote(dst)} [label={_dot_quote(_fmt_set(label))}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, Arena):
        lines = [f"digraph {_dot_quote(obj.id)} {{"]
        for v, fsm in obj.vertices:
            lines.append(f"  {_dot_quote(v)} [shape=box, label={_dot_quote(f'{v} : {fsm.id}')}];")
        for a, b in obj.edges:
            lines.append(f"  {_dot_quote(a)} -> {_dot_quote(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")

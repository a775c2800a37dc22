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

:func:`parse` reads a str or an open text file a block at a time, reads
each block a line at a time and releases it once read, so it holds a
large machine once and never the whole text of a file.  Every token and
every state a transition names is checked at its line, and a transition
holds the id objects its ``state`` lines declared and the one checked
frozenset of its label text.  At ``end``, ``model._from_tokens`` and
``model._arena`` check only what tokens cannot show, and transitions read
in canonical order stay in that order.
:func:`serialize` joins blocks of lines that the CLI writes to a file one
at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import TextIO

from .model import (
    Arena,
    Fsm,
    MissingState,
    ModelError,
    _arena,
    _from_tokens,
    _token,
    stage,
    symbol_set,
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


def _parse_set(tok: str, line_no: int) -> frozenset:
    m = _SET_RE.match(tok)
    if not m:
        raise FormatError(f"expected a symbol set like {{a,b}}, got {tok!r}", line_no)
    body = m.group(1)  # a token holds no whitespace
    return symbol_set(body.split(",") if body else [])


def _blocks(text):
    """A str or an open text file, ``_BLOCK`` characters at a time, cut at line ends.

    Each read is cut after the last ``\\n`` in it and the rest is carried
    into the next read, so only the last block may end without one.
    ``\\r\\n`` is the only line break longer than one character, so no
    break straddles a cut, and the blocks' ``str.splitlines`` are those of
    the whole text.
    """
    if isinstance(text, str):
        reads = (text[i:i + _BLOCK] for i in range(0, len(text), _BLOCK))
    else:
        reads = iter(partial(text.read, _BLOCK), "")
    rest = ""
    for read in reads:
        cut = read.rfind("\n") + 1
        if cut:
            yield rest + read[:cut]
            rest = read[cut:]
        else:
            rest += read
    if rest:
        yield rest


def parse(text: str | TextIO, source: str | None = None) -> ModelDocument:
    """Parse a document from a str or an open text file.

    Raises ``FormatError`` with a line number on failure.
    """
    return _parse(text, source)


@stage("_parse")
def _parse(text, source):
    """:func:`parse`, which the CLI calls with an open file."""
    doc = ModelDocument(source=source)
    block = None  # None | ("fsm", name, acc) | ("arena", name, acc)
    # while an fsm block is open: each declared state id -> itself, and the
    # block's output map and transitions
    ids = omap = trans = None
    line_no = 0
    sets = {}  # each distinct set text -> its frozenset, checked at the line that first reads it

    for text_block in _blocks(text):
        hashed = "#" in text_block
        for line_no, line in enumerate(text_block.splitlines(), line_no + 1):
            # a model error from a check of a token is reported at this line; a
            # format error keeps its own, as ``end`` reports at its block's header
            try:
                if hashed and "#" in line:
                    line = line[:line.index("#")]
                # tokens are runs of non-space; sets keep their braces as one token
                toks = line.split()
                if not toks:
                    continue
                kw = toks[0]

                # the directives of most lines, so they are dispatched first; the
                # transition holds the declared id objects, not the line's copies
                if kw == "trans" and ids is not None:
                    if len(toks) != 4:
                        raise FormatError("'trans' takes source, label set, target", line_no)
                    _, src, label, dst = toks
                    try:
                        src, dst = ids[src], ids[dst]
                    except KeyError:
                        # a declared state is a valid token, so only a miss is checked
                        _token("state id", src)
                        _token("state id", dst)
                        side, sid = ("source", src) if src not in ids else ("target", dst)
                        raise MissingStateAtLine(
                            f"transition {side} {sid!r} is not a declared state", line_no
                        ) from None
                    if label not in sets:
                        sets[label] = _parse_set(label, line_no)
                    trans.append((src, sets[label], dst))
                    continue
                if kw == "state" and ids is not None:
                    if len(toks) != 3:
                        raise FormatError("'state' takes an id and an output set", line_no)
                    _, sid, out = toks
                    _token("state id", sid)
                    if sid in ids:
                        raise DuplicateName(f"duplicate state {sid!r}", line_no)
                    if out not in sets:
                        sets[out] = _parse_set(out, line_no)
                    omap[sid] = sets[out]
                    ids[sid] = sid
                    continue

                if kw in ("fsm", "arena"):
                    if block is not None:
                        raise FormatError(f"'{kw}' inside an open block; missing 'end'?", line_no)
                    if len(toks) != 2:
                        raise FormatError(f"'{kw}' takes exactly one name", line_no)
                    name = _token(f"{kw} name", toks[1])
                    if name in doc.fsms or name in doc.arenas:
                        raise DuplicateName(f"duplicate definition of {name!r}", line_no)
                    if kw == "fsm":
                        ids, omap, trans = {}, {}, []
                        block = ("fsm", name, {
                            "inputs": None, "outputs": None, "initial": None, "line": line_no,
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
                            trans = tuple(trans)  # drops the list before the machine is built
                            doc.fsms[name] = _from_tokens(
                                name, ids, acc["initial"], acc["inputs"] or frozenset(),
                                acc["outputs"] or frozenset(), omap, trans,
                            )
                        else:
                            doc.arenas[name] = _arena(name, acc["nodes"].items(), acc["edges"])
                    except ModelError as exc:
                        raise FormatError(str(exc), acc["line"]) from exc
                    block = ids = omap = trans = None
                    continue

                if kind == "fsm":
                    if kw in ("inputs", "outputs"):
                        if len(toks) != 2:
                            raise FormatError(f"'{kw}' takes one symbol set", line_no)
                        if acc[kw] is not None:
                            raise FormatError(f"duplicate '{kw}' directive", line_no)
                        if toks[1] not in sets:
                            sets[toks[1]] = _parse_set(toks[1], line_no)
                        acc[kw] = sets[toks[1]]
                    elif kw == "initial":
                        if len(toks) != 2:
                            raise FormatError("'initial' takes one state id", line_no)
                        if acc["initial"] is not None:
                            raise FormatError(
                                "at most one 'initial' directive is allowed", line_no
                            )
                        acc["initial"] = _token("state id", toks[1])
                    else:
                        raise FormatError(f"unknown directive {kw!r} in fsm block", line_no)
                else:
                    if kw == "node":
                        if len(toks) != 3:
                            raise FormatError(
                                "'node' takes a vertex id and a machine name", line_no
                            )
                        _, vid, fsm_name = toks
                        _token("vertex id", vid)
                        if vid in acc["nodes"]:
                            raise DuplicateName(f"duplicate vertex {vid!r}", line_no)
                        # blocks do not nest, so every machine an arena can use is
                        # already defined, and its name checked, when its node line is read
                        if fsm_name not in doc.fsms:
                            _token("machine name", fsm_name)
                            raise FormatError(
                                f"arena {name!r}: unknown machine {fsm_name!r}", line_no
                            )
                        acc["nodes"][vid] = doc.fsms[fsm_name]
                    elif kw == "edge":
                        if len(toks) != 3:
                            raise FormatError("'edge' takes two vertex ids", line_no)
                        _, src, dst = toks
                        _token("vertex id", src)
                        _token("vertex id", dst)
                        acc["edges"].append((src, dst))
                    else:
                        raise FormatError(f"unknown directive {kw!r} in arena block", line_no)
            except FormatError:
                raise
            except ModelError as exc:
                raise FormatError(str(exc), line_no) from exc

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


@stage("serialize")
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

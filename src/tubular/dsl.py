"""A small text format for tubular presentations, with a parser and printer.

Two forms are accepted:

    group NAME {
      vertex V, W;
      edge b : V(0,1) -> W(1,1);
      edge c : V(0,1) -> V(2,1);
    }

    gpq p=[0,0] q=[1,2]

Whitespace is insignificant, `#` starts a comment to end of line, and the
semicolon before `}` is optional.  Names, vertex ids and edge labels are
identifiers, `[A-Za-z_][A-Za-z0-9_.-]*`, and integers are `-?[0-9]+`, ASCII
digits only.  Errors carry 1-based line/column positions.

A group text is read by whole statements: one match for the head and the
vertex list, one for each whole `edge` statement, each anchored where the
last one ended, and one for the closing brace; the data model checks the
rest (ids, ends, nonzero vectors).  These statement patterns define the
group texts that parse.  A gpq text, and any text that the statement match
or the data model rejects, goes to a token walker built from the same token
fragments; on a group text it only words the first error with its position.
"""

from __future__ import annotations

import re
from itertools import islice

from .core import Edge, GpqParams, IntVec2, TubularPresentation


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# The token fragments, shared by the statement patterns and the walker.
# Between tokens come whitespace and comments; a comment ends only at the end
# of its line, so that no backtracking in a statement pattern can end one
# early and read the rest of its line as text.
_ID = r"[A-Za-z_][A-Za-z0-9_.-]*"
_INT = r"-?[0-9]+"
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*(?![^\n])[ \t\r\n]*)*"

# The statement patterns, which define the group texts that parse.  A keyword
# is not followed by an identifier character; nothing else needs a guard,
# since every token after an identifier or an integer starts with a character
# neither can contain.  A group text is _HEAD, then one _EDGE match after
# another, each with its ';', which the last may leave out, then _TAIL.
_END = r"(?![A-Za-z0-9_.-])"
_VEC = rf"({_ID}){_SKIP}\({_SKIP}({_INT}){_SKIP},{_SKIP}({_INT}){_SKIP}\)"
_HEAD = re.compile(
    rf"{_SKIP}group{_END}{_SKIP}({_ID}){_SKIP}\{{{_SKIP}vertex{_END}{_SKIP}"
    rf"({_ID}(?:{_SKIP},{_SKIP}{_ID})*){_SKIP};"
)
_EDGE = re.compile(
    rf"{_SKIP}edge{_END}{_SKIP}({_ID}){_SKIP}:{_SKIP}{_VEC}{_SKIP}->{_SKIP}{_VEC}{_SKIP}"
    r"(?:;|(?=\}))"
)
_TAIL = re.compile(rf"{_SKIP}\}}{_SKIP}")
_VERTEX = re.compile(rf"{_SKIP}({_ID}){_SKIP},?")

# The walker's tokens, one match each: skip, then capture an integer, an
# identifier, a punctuator or any other (bad) character; at the end of the
# text every group is empty.  `findall` gives one 4-tuple per token, indexed
# by the slots below, and always ends with an end-of-input tuple.
_RE = re.compile(
    rf"{_SKIP}(?:({_INT})|({_ID})|(->|[{{}}();:,=\[\]])|(.)|\Z)", re.DOTALL
)
INT, IDENT, PUNCT, BAD = range(4)
_EOF = ("", "", "", "")


def _shown(tok: tuple[str, ...]) -> str:
    return "".join(tok) or "end of input"


class _Parser:
    """Walks the token tuples by index; positions are found only on error.

    A group text reaches the walker only when the statement patterns or the
    data model rejected it; the walker words the first error, and must reject
    every such text too."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _RE.findall(text)
        self.i = 0

    def fail(self, message: str, k: int | None = None):
        """Raise at token k (default: the next one); a bad character wins."""
        toks, text = self.toks, self.text
        k = self.i if k is None else k
        for j, tok in enumerate(toks):
            if tok[BAD]:
                k, message = j, f"unexpected character {tok[BAD]!r}"
                break
        off = next(islice(_RE.finditer(text), k, None)).end() - len("".join(toks[k]))
        line = text.count("\n", 0, off) + 1
        raise DslError(message, line, off - text.rfind("\n", 0, off))

    def expect(self, slot: int, text: str):
        tok = self.toks[self.i]
        if tok[slot] != text:
            self.fail(f"expected {text!r}, got {_shown(tok)!r}")
        self.i += 1

    def ident(self, what: str) -> str:
        tok = self.toks[self.i]
        if not tok[IDENT]:
            self.fail(f"expected {what}, got {_shown(tok)!r}")
        self.i += 1
        return tok[IDENT]

    def integer(self) -> int:
        tok = self.toks[self.i]
        if not tok[INT]:
            self.fail(f"expected integer, got {_shown(tok)!r}")
        try:
            n = int(tok[INT])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            self.fail("integer literal too long")
        self.i += 1
        return n

    def parse(self) -> TubularPresentation | GpqParams:
        head = self.toks[0][IDENT]
        if head == "group":
            out = self.parse_group()
        elif head == "gpq":
            out = self.parse_gpq()
        else:
            self.fail("expected 'group' or 'gpq'")
        tail = self.toks[self.i]
        if tail != _EOF:
            self.fail(f"unexpected trailing input {_shown(tail)!r}")
        return out

    def parse_group(self) -> TubularPresentation:
        toks = self.toks
        self.expect(IDENT, "group")
        name = self.ident("group name")
        self.expect(PUNCT, "{")
        self.expect(IDENT, "vertex")
        vertices = [self.ident("vertex id")]
        vset, dup = set(vertices), None
        while toks[self.i][PUNCT] == ",":
            self.i += 1
            v = self.ident("vertex id")
            if v in vset and dup is None:
                dup = self.i - 1
            vset.add(v)
            vertices.append(v)
        self.expect(PUNCT, ";")
        if dup is not None:
            self.fail("duplicate vertex id", dup)
        edges: list[Edge] = []
        seen_labels: set[str] = set()
        while toks[self.i][IDENT] == "edge":
            self.i += 1
            label = self.ident("edge label")
            if label in seen_labels:
                self.fail(f"duplicate edge label {label!r}", self.i - 1)
            seen_labels.add(label)
            self.expect(PUNCT, ":")
            src, v = self.parse_end(vset)
            self.expect(PUNCT, "->")
            dst, w = self.parse_end(vset)
            edges.append(Edge(label, src, dst, v, w))
            sep = toks[self.i][PUNCT]
            if sep == ";":
                self.i += 1
            elif sep != "}":
                self.fail("expected ';' or '}'")
        self.expect(PUNCT, "}")
        return TubularPresentation(tuple(vertices), tuple(edges), name=name)

    def parse_end(self, vset: set[str]) -> tuple[str, IntVec2]:
        k = self.i
        vertex = self.ident("vertex id")
        if vertex not in vset:
            self.fail(f"unknown vertex {vertex!r}", k)
        self.expect(PUNCT, "(")
        x = self.integer()
        self.expect(PUNCT, ",")
        y = self.integer()
        self.expect(PUNCT, ")")
        if x == 0 and y == 0:
            self.fail("zero attaching vector", k)
        return vertex, IntVec2(x, y)

    def parse_gpq(self) -> GpqParams:
        self.expect(IDENT, "gpq")
        self.expect(IDENT, "p")
        self.expect(PUNCT, "=")
        p = self.parse_int_list()
        self.expect(IDENT, "q")
        self.expect(PUNCT, "=")
        k = self.i
        q = self.parse_int_list()
        if len(p) != len(q) or not p:
            self.fail("p and q must have equal positive length", k)
        return GpqParams(tuple(p), tuple(q))

    def parse_int_list(self) -> list[int]:
        self.expect(PUNCT, "[")
        out = [self.integer()]
        while self.toks[self.i][PUNCT] == ",":
            self.i += 1
            out.append(self.integer())
        self.expect(PUNCT, "]")
        return out


def parse(text: str) -> TubularPresentation | GpqParams:
    """Parse the DSL; raises DslError with line/column on malformed input."""
    if head := _HEAD.match(text):
        pos, edges = head.end(), []
        try:
            while m := _EDGE.match(text, pos):
                label, src, x, y, dst, z, t = m.groups()
                v, w = IntVec2(int(x), int(y)), IntVec2(int(z), int(t))
                edges.append(Edge(label, src, dst, v, w))
                pos = m.end()
            if _TAIL.fullmatch(text, pos):
                name, vertices = head.groups()
                ids = tuple(_VERTEX.findall(vertices))
                return TubularPresentation(ids, tuple(edges), name=name)
        except ValueError:  # a repeated id, unknown end, zero vector or long integer
            pass
    return _Parser(text).parse()


def _checked(name: str) -> str:
    if _RE.match(name)[IDENT + 1] != name:
        raise ValueError(f"{name!r} is not a DSL identifier")
    return name


def unparse(obj: TubularPresentation | GpqParams) -> str:
    """Print an object in the DSL; parse(unparse(x)) == x, except that the empty
    name prints as G.  A name or id that is not an identifier raises ValueError."""
    if isinstance(obj, GpqParams):
        p = ",".join(str(n) for n in obj.p)
        q = ",".join(str(n) for n in obj.q)
        return f"gpq p=[{p}] q=[{q}]\n"
    lines = [f"group {_checked(obj.name or 'G')} {{"]
    lines.append("  vertex " + ", ".join(map(_checked, obj.vertices)) + ";")
    for e in obj.edges:
        v, w = f"{e.src}({e.v.x},{e.v.y})", f"{e.dst}({e.w.x},{e.w.y})"
        lines.append(f"  edge {_checked(e.id)} : {v} -> {w};")
    lines.append("}")
    return "\n".join(lines) + "\n"

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


# One match per token: skip whitespace and comments, then capture an integer,
# an identifier, a punctuator or any other (bad) character; at the end of the
# text every group is empty.  `findall` gives one 4-tuple per token, indexed
# by the slots below, and always ends with an end-of-input tuple.
_RE = re.compile(
    r"""[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
        (?:(-?[0-9]+)|([A-Za-z_][A-Za-z0-9_.-]*)|(->|[{}();:,=\[\]])|(.)|\Z)""",
    re.VERBOSE | re.DOTALL,
)
INT, IDENT, PUNCT, BAD = range(4)
_EOF = ("", "", "", "")


def _shown(tok: tuple[str, ...]) -> str:
    return "".join(tok) or "end of input"


class _Parser:
    """Walks the token tuples by index; positions are found only on error."""

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

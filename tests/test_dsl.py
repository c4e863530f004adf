import random
import re
import sys
from collections import Counter
from dataclasses import dataclass

import pytest

from tubular.core import Edge, GpqParams, IntVec2, TubularPresentation, single_vertex_presentation
from tubular import dsl
from tubular.dsl import DslError, parse, unparse

V = IntVec2

GERSTEN_TEXT = """
group gersten {
  vertex V;
  edge b : V(0,1) -> V(1,1);
  edge c : V(0,1) -> V(2,1)
}
"""


def test_parse_gersten():
    g = parse(GERSTEN_TEXT)
    assert isinstance(g, TubularPresentation)
    assert g.name == "gersten"
    assert g.vertices == ("V",)
    assert [(e.id, e.v, e.w) for e in g.edges] == [
        ("b", V(0, 1), V(1, 1)),
        ("c", V(0, 1), V(2, 1)),
    ]


def test_parse_gpq():
    params = parse("gpq p=[0,0] q=[1,2]")
    assert params == GpqParams((0, 0), (1, 2))


def test_comments_and_whitespace():
    text = "group g { # a comment\n  vertex A , B ;  # another\n edge e:A(1,0)->B(-2,3); }"
    g = parse(text)
    assert g.vertices == ("A", "B")
    assert g.edges[0].w == V(-2, 3)


def test_trailing_semicolon_optional():
    with_semi = parse("group g { vertex V; edge e : V(1,0) -> V(0,1); }")
    without = parse("group g { vertex V; edge e : V(1,0) -> V(0,1) }")
    assert with_semi == without


def test_zero_vector_error_position():
    with pytest.raises(DslError) as exc:
        parse("group bad {\n  vertex V;\n  edge e : V(0,0) -> V(1,0);\n}")
    assert exc.value.line == 3
    assert "zero attaching vector" in str(exc.value)


def test_unknown_vertex_error():
    with pytest.raises(DslError) as exc:
        parse("group bad { vertex V; edge e : W(1,0) -> V(1,0); }")
    assert "unknown vertex 'W'" in str(exc.value)


def test_duplicate_label_error():
    with pytest.raises(DslError) as exc:
        parse(
            "group bad { vertex V; edge e : V(1,0) -> V(1,0); "
            "edge e : V(0,1) -> V(0,1); }"
        )
    assert "duplicate edge label" in str(exc.value)


def test_syntax_error_has_line_and_column():
    with pytest.raises(DslError) as exc:
        parse("group g {\n  vertex V\n}")
    assert exc.value.line == 3


def test_mismatched_gpq_lengths():
    with pytest.raises(DslError):
        parse("gpq p=[1] q=[1,2]")


def test_trailing_input_rejected():
    with pytest.raises(DslError):
        parse("gpq p=[1] q=[1] extra")


def _random_presentation(rng) -> TubularPresentation:
    nv = rng.randint(1, 3)
    vertices = tuple(f"V{i}" for i in range(nv))
    edges = []
    for j in range(rng.randint(0, 4)):
        while True:
            v = V(rng.randint(-9, 9), rng.randint(-9, 9))
            w = V(rng.randint(-9, 9), rng.randint(-9, 9))
            if not v.is_zero() and not w.is_zero():
                break
        edges.append(Edge(f"e{j}", rng.choice(vertices), rng.choice(vertices), v, w))
    return TubularPresentation(vertices, tuple(edges), name=f"g{rng.randint(0, 99)}")


def test_round_trip_random_presentations():
    rng = random.Random(20240821)
    for _ in range(200):
        g = _random_presentation(rng)
        assert parse(unparse(g)) == g
    # The empty name, which single_vertex_presentation gives by default,
    # prints as G and so comes back as G.
    unnamed = single_vertex_presentation([(V(1, 0), V(0, 1)), (V(2, 1), V(1, 2))])
    assert unnamed.name == ""
    assert parse(unparse(unnamed)) == unnamed._replace(name="G")


def test_round_trip_corpus_entries():
    from tubular.corpus import corpus

    for entry in corpus():
        assert parse(unparse(entry.presentation)) == entry.presentation


def test_round_trip_gpq():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 4)
        params = GpqParams(
            tuple(rng.randint(-9, 9) for _ in range(n)),
            tuple(rng.randint(-9, 9) for _ in range(n)),
        )
        assert parse(unparse(params)) == params


# ---------------------------------------------------------------- oracle
# The parser that tokenized with one Python-level regex match per token and
# a frozen Token carrying its line and column; kept to check the one-scan
# parser against.


@dataclass(frozen=True)
class _OracleToken:
    kind: str  # "ident", "int", "punct", "eof"
    text: str
    line: int
    col: int


_ORACLE_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<int>-?\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_.-]*)
      | (?P<punct>->|[{}();:,=\[\]])
    """,
    re.VERBOSE,
)


def _oracle_tokenize(text: str) -> list[_OracleToken]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        col = pos - line_start + 1
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_OracleToken(kind, raw, line, col))
        for i, ch in enumerate(raw):
            if ch == "\n":
                line += 1
                line_start = pos + i + 1
        pos = m.end()
    tokens.append(_OracleToken("eof", "", line, len(text) - line_start + 1))
    return tokens


class _OracleParser:
    def __init__(self, text: str):
        self.tokens = _oracle_tokenize(text)
        self.i = 0

    def peek(self) -> _OracleToken:
        return self.tokens[self.i]

    def next(self) -> _OracleToken:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def fail(self, message: str, tok: _OracleToken | None = None):
        tok = tok or self.peek()
        raise DslError(message, tok.line, tok.col)

    def expect(self, text: str) -> _OracleToken:
        t = self.next()
        if t.text != text:
            self.fail(f"expected {text!r}, got {t.text or 'end of input'!r}", t)
        return t

    def ident(self, what: str) -> _OracleToken:
        t = self.next()
        if t.kind != "ident":
            self.fail(f"expected {what}, got {t.text or 'end of input'!r}", t)
        return t

    def integer(self) -> int:
        t = self.next()
        if t.kind != "int":
            self.fail(f"expected integer, got {t.text or 'end of input'!r}", t)
        return int(t.text)

    def parse(self) -> TubularPresentation | GpqParams:
        head = self.peek()
        if head.text == "group":
            out = self.parse_group()
        elif head.text == "gpq":
            out = self.parse_gpq()
        else:
            self.fail("expected 'group' or 'gpq'")
        tail = self.next()
        if tail.kind != "eof":
            self.fail(f"unexpected trailing input {tail.text!r}", tail)
        return out

    def parse_group(self) -> TubularPresentation:
        self.expect("group")
        name = self.ident("group name").text
        self.expect("{")
        self.expect("vertex")
        vertices = [self.ident("vertex id").text]
        while self.peek().text == ",":
            self.next()
            vertices.append(self.ident("vertex id").text)
        self.expect(";")
        vset = set(vertices)
        if len(vset) != len(vertices):
            self.fail("duplicate vertex id")
        edges: list[Edge] = []
        seen_labels: set[str] = set()
        while self.peek().text == "edge":
            self.next()
            label_tok = self.ident("edge label")
            if label_tok.text in seen_labels:
                self.fail(f"duplicate edge label {label_tok.text!r}", label_tok)
            seen_labels.add(label_tok.text)
            self.expect(":")
            src, v = self.parse_end(vset)
            self.expect("->")
            dst, w = self.parse_end(vset)
            edges.append(Edge(label_tok.text, src, dst, v, w))
            if self.peek().text == ";":
                self.next()
            elif self.peek().text != "}":
                self.fail("expected ';' or '}'")
        self.expect("}")
        return TubularPresentation(tuple(vertices), tuple(edges), name=name)

    def parse_end(self, vset: set[str]) -> tuple[str, IntVec2]:
        vtok = self.ident("vertex id")
        if vtok.text not in vset:
            self.fail(f"unknown vertex {vtok.text!r}", vtok)
        self.expect("(")
        x = self.integer()
        self.expect(",")
        y = self.integer()
        self.expect(")")
        if x == 0 and y == 0:
            self.fail("zero attaching vector", vtok)
        return vtok.text, IntVec2(x, y)

    def parse_gpq(self) -> GpqParams:
        self.expect("gpq")
        self.expect("p")
        self.expect("=")
        p = self.parse_int_list()
        self.expect("q")
        self.expect("=")
        q_tok = self.peek()
        q = self.parse_int_list()
        if len(p) != len(q) or not p:
            self.fail("p and q must have equal positive length", q_tok)
        return GpqParams(tuple(p), tuple(q))

    def parse_int_list(self) -> list[int]:
        self.expect("[")
        out = [self.integer()]
        while self.peek().text == ",":
            self.next()
            out.append(self.integer())
        self.expect("]")
        return out


def _agree(text: str) -> str:
    """Parse `text` with the parser and the oracle and check they agree;
    returns the outcome: "ok", "too long", or the error message."""
    try:
        want = _OracleParser(text).parse()
    except DslError as e:
        want = e
    except ValueError as e:
        # The oracle's int() refuses more than sys.get_int_max_str_digits()
        # digits, with no position; the parser reports it at the literal.
        assert "Exceeds the limit" in str(e)
        with pytest.raises(DslError) as exc:
            parse(text)
        assert re.fullmatch(r"\d+:\d+: integer literal too long", str(exc.value))
        toks = _oracle_tokenize(text)
        tok = next(t for t in toks if (t.line, t.col) == (exc.value.line, exc.value.col))
        assert tok.kind == "int" and len(tok.text.lstrip("-")) > sys.get_int_max_str_digits()
        return "too long"
    try:
        got = parse(text)
    except DslError as e:
        got = e
    if not isinstance(want, DslError):
        assert got == want
        return "ok"
    assert isinstance(got, DslError), text
    message = str(want).split(": ", 1)[1]
    if message == "duplicate vertex id":
        # The oracle points at the token after ';', the parser at the first
        # vertex id that repeats an earlier one.
        assert str(got) == f"{got.line}:{got.col}: duplicate vertex id"
        toks = _oracle_tokenize(text)
        k = next(i for i, t in enumerate(toks) if (t.line, t.col) == (got.line, got.col))
        ids = [t.text for t in toks[4 : k + 1 : 2]]  # after `group NAME { vertex`
        assert ids[-1] in ids[:-1] and len(set(ids[:-1])) == len(ids) - 1
    else:
        assert (str(got), got.line, got.col) == (str(want), want.line, want.col), text
    return message


_MUTATION_CHARS = "{}();:,=[]->#@\n\r\t 0123456789abcdefghijklmnopqrstuvwxyz"


def _mutated(rng, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        ch = rng.choice(_MUTATION_CHARS)
        if op == 0:
            text = text[:i] + ch + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + ch + text[i + 1 :]
    return text


def _random_gpq(rng) -> GpqParams:
    n = rng.randint(1, 4)
    return GpqParams(
        tuple(rng.randint(-12, 12) for _ in range(n)),
        tuple(rng.randint(-12, 12) for _ in range(n)),
    )


def test_parser_agrees_with_oracle_on_mutated_texts(monkeypatch):
    from tubular.corpus import corpus

    # The statement patterns define the group texts that parse: the walker
    # runs only on texts that they reject, must raise on each group text, and
    # returns only a gpq text's parameters.
    real = dsl._Parser.parse

    def walker(self):
        out = real(self)
        if not isinstance(out, GpqParams):
            pytest.fail(f"the walker returned {out!r} on {self.text!r}")
        return out

    monkeypatch.setattr(dsl._Parser, "parse", walker)
    rng = random.Random(909)
    bases = [unparse(entry.presentation) for entry in corpus()]
    bases += [unparse(_random_presentation(rng)) for _ in range(60)]
    bases += [unparse(_random_gpq(rng)) for _ in range(30)]
    assert all(_agree(text) == "ok" for text in bases)
    # Vertex lists that repeat an id, for the duplicate vertex error.
    for _ in range(20):
        g = _random_presentation(rng)
        ids = list(g.vertices)
        ids.insert(rng.randint(1, len(ids)), rng.choice(ids))
        text = unparse(g).replace(", ".join(g.vertices) + ";", ", ".join(ids) + ";", 1)
        assert _agree(text) == "duplicate vertex id"
        bases.append(text)
    outcomes = Counter()
    for i in range(6000):
        outcomes[_agree(_mutated(rng, bases[i % len(bases)]))] += 1
    assert outcomes["ok"] >= 300, outcomes
    assert outcomes["duplicate vertex id"] >= 100, outcomes
    for prefix in (
        "unexpected character",
        "expected '{'",
        "expected integer",
        "expected vertex id",
        "expected ';' or '}'",
        "expected 'group' or 'gpq'",
        "unexpected trailing input",
        "unknown vertex",
        "duplicate edge label",
        "p and q must have equal positive length",
    ):
        assert any(m.startswith(prefix) for m in outcomes), (prefix, outcomes)


# Every error message, pinned byte for byte; each text also goes through the
# oracle comparison.
EXACT_ERRORS = [
    ("grup g { vertex V; }", "1:1: expected 'group' or 'gpq'"),
    ("", "1:1: expected 'group' or 'gpq'"),
    ("group { vertex V; }", "1:7: expected group name, got '{'"),
    ("group g vertex V; }", "1:9: expected '{', got 'vertex'"),
    ("group g { vertex V edge e : V(1,0) -> V(0,1); }", "1:20: expected ';', got 'edge'"),
    ("group g { vertex V; edge : V(1,0) -> V(0,1); }", "1:26: expected edge label, got ':'"),
    ("group g { vertex V; edge e : V(1,0) V(0,1); }", "1:37: expected '->', got 'V'"),
    ("group g { vertex V; edge e : V(1,x) -> V(0,1); }", "1:34: expected integer, got 'x'"),
    (
        "group g { vertex V; edge e : V(1,0) -> V(0,1) edge f : V(1,1) -> V(0,1); }",
        "1:47: expected ';' or '}'",
    ),
    ("group g { vertex V; edge e : W(1,0) -> V(0,1); }", "1:30: unknown vertex 'W'"),
    ("group g { vertex V; edge e : V(0,0) -> V(0,1); }", "1:30: zero attaching vector"),
    (
        "group g { vertex V; edge e : V(1,0) -> V(0,1); edge e : V(1,1) -> V(0,1); }",
        "1:53: duplicate edge label 'e'",
    ),
    ("gpq p=[1,2] q=[1]", "1:15: p and q must have equal positive length"),
    ("gpq p=[1] q=[2] p", "1:17: unexpected trailing input 'p'"),
    ("group g { vertex V; } @", "1:23: unexpected character '@'"),
    # End of input after trailing comments and newlines.
    ("gpq p=[1] q=[2\n# done\n\n", "4:1: expected ']', got 'end of input'"),
    ("  # only a comment\n", "2:1: expected 'group' or 'gpq'"),
    # CRLF line ends: '\r' is whitespace, lines end at '\n'.
    (
        "group g {\r\n  vertex V;\r\n  edge e : V(0,0) -> V(1,0);\r\n}\r\n",
        "3:12: zero attaching vector",
    ),
    # A bad character wins over an earlier syntax error ('vertex ;').
    ("group g { vertex ; edge e : V(1,0) -> V(0,1); } @", "1:49: unexpected character '@'"),
    ("group g {\n vertex V\n #@\n}\t$\n", "4:3: unexpected character '$'"),
    # A comment runs to the end of its line, also inside a statement: read
    # short, it would make a fourth vertex or an arrow of its rest.
    ("group g70 {\n  vertex V0, gV1, V1#,, V2;\n}\n", "3:1: expected ';', got '}'"),
    (
        "group g {\n  vertex V;\n  edge e : V(1,0)#) -> V(0,1);\n V(0,1);\n}\n",
        "4:2: expected '->', got 'V'",
    ),
    ("group g {\n  vertex V;\n  edge e : V(1,0)#) -> V(0,1);\n}\n", "4:1: expected '->', got '}'"),
]


@pytest.mark.parametrize("text, message", EXACT_ERRORS)
def test_exact_error_bytes(text, message):
    with pytest.raises(DslError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert f"{exc.value.line}:{exc.value.col}: " == message[: message.index(" ") + 1]
    _agree(text)


def test_at_sign_inside_comment_is_accepted():
    text = "group g { vertex V; # a #@ comment\n  edge e : V(1,0) -> V(0,1); }  # @"
    assert parse(text).edges[0].w == V(0, 1)
    assert _agree(text) == "ok"


def test_duplicate_vertex_points_at_the_repeated_id():
    text = "group g { vertex V, V; edge e : V(1,0) -> V(0,1); }"
    with pytest.raises(DslError) as exc:
        parse(text)
    assert str(exc.value) == "1:21: duplicate vertex id"  # the second V
    with pytest.raises(DslError) as exc:
        _OracleParser(text).parse()
    assert str(exc.value) == "1:24: duplicate vertex id"  # the oracle: 'edge'
    # The check still comes after the vertex list, so a syntax error in the
    # list wins, as it does in the oracle.
    with pytest.raises(DslError, match=r"^1:23: expected ';', got 'W'$"):
        parse("group g { vertex V, V W; }")
    with pytest.raises(DslError, match=r"^2:5: duplicate vertex id$"):
        parse("group g { vertex A, B,\n C, B, A; }")


def test_over_long_integer_literal_is_a_dsl_error(capsys, tmp_path):
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    text = f"group g {{ vertex V; edge e : V({digits},0) -> V(0,1); }}"
    with pytest.raises(DslError) as exc:
        parse(text)
    assert str(exc.value) == "1:32: integer literal too long"
    assert _agree(text) == "too long"
    assert _agree(f"gpq p=[-{digits}] q=[1]") == "too long"
    # A bad character anywhere still wins.
    with pytest.raises(DslError, match=r"^1:\d+: unexpected character '\$'$"):
        parse(text + " $")
    # The longest literal int() accepts still parses.
    assert parse(f"gpq p=[{digits[1:]}] q=[1]").p == (int(digits[1:]),)

    from tubular.cli import main

    path = tmp_path / "long.tub"
    path.write_text(text)
    assert main(["cat0", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: 1:32: integer literal too long\n"


@pytest.mark.parametrize(
    "g, bad",
    [
        (TubularPresentation(("V",), (), name="a b"), "'a b'"),
        (TubularPresentation(("1V",), ()), "'1V'"),
        (TubularPresentation(("V", "W#"), ()), "'W#'"),
        (
            TubularPresentation(("V",), (Edge("e f", "V", "V", V(1, 0), V(0, 1)),)),
            "'e f'",
        ),
        (TubularPresentation(("V",), (Edge("e(", "V", "V", V(1, 0), V(0, 1)),)), "'e('"),
    ],
)
def test_unparse_rejects_names_that_are_not_identifiers(g, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(bad)} is not a DSL identifier$"):
        unparse(g)


def test_unparse_accepts_every_identifier_form():
    g = TubularPresentation(
        ("_a.b-c", "group", "edge"),
        (Edge("vertex", "group", "edge", V(1, 0), V(0, 1)),),
        name="gpq",
    )
    assert parse(unparse(g)) == g


def test_unparse_rejects_text_that_would_not_parse_back():
    # An edge prints its id, the DSL's one name for it, so only two edges
    # with one id would print text that does not parse; no presentation
    # holds them.
    e = Edge("a", "V", "V", V(1, 0), V(0, 1))
    with pytest.raises(ValueError, match="^duplicate edge ids$"):
        TubularPresentation(("V",), (e, e))
    plain = TubularPresentation(("V",), (e,), name="plain")
    assert parse(unparse(plain)) == plain


def test_integers_are_ascii_digits_only():
    with pytest.raises(DslError, match="^1:8: unexpected character '\u0663'$"):
        parse("gpq p=[\u0663] q=[\uff11]")


def test_long_inputs_parse_in_one_pass():
    # 100,000 lines of whitespace and comments: the skip pattern must not
    # backtrack, and the error path must find a position past all of them.
    filler = "# comment # with #@ marks\n  \t\r\n" * 50_000
    assert parse(filler + "gpq p=[1] q=[2]" + filler) == GpqParams((1,), (2,))
    with pytest.raises(DslError, match=r"^200001:1: expected ']', got 'end of input'$"):
        parse(filler + "gpq p=[1] q=[2" + filler)
    with pytest.raises(DslError, match=r"^100001:16: expected ']', got 'q'$"):
        parse(filler + "gpq p=[1] q=[2 q]")

    # The same run before the '}' of a group text, with and without an edge
    # before it: each statement match is anchored, so the edge pattern is
    # tried there once, not at every later position.
    e = Edge("e", "V", "V", V(1, 0), V(0, 1))
    for body, edges in (("", ()), ("edge e : V(1,0) -> V(0,1);\n", (e,))):
        head = filler + "group g { vertex V;\n" + body
        expected = TubularPresentation(("V",), edges, name="g")
        assert parse(head + filler + "}" + filler) == expected
        with pytest.raises(DslError, match=r"^\d+:1: expected '}', got 'end of input'$"):
            parse(head + filler)

    edges = tuple(
        Edge(f"e{i}", "V", "W", V(i + 1, -i), V(-i, i + 1)) for i in range(5000)
    )
    g = TubularPresentation(("V", "W"), edges, name="wide")
    assert parse(unparse(g)) == g

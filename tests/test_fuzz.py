"""CLI fuzz: every input ends in exit 0 or 2 within a CPU budget per case.

Mutated corpus texts go through `analyze`; random presentations of one to
four vertices whose coordinates are small, near +-2^63 or up to 10^40 go
through `analyze` and each form of `cubulate`.  The budget is enforced with
`setitimer(ITIMER_PROF)`, so an over-budget case fails instead of hanging.
"""

import io
import random
import signal
import sys

import pytest

from tubular.cli import main
from tubular.core import Edge, IntVec2, TubularPresentation
from tubular.corpus import corpus
from tubular.dsl import unparse

BUDGET_S = 2.0
MUTATION_CHARS = "{}();:,=[]->#\n 0123456789-abcdegpqrtvxV"
COMMANDS = [
    ["analyze"],
    ["cubulate", "--json", "--all-matchings"],
    ["cubulate"],
    ["cubulate", "--dot"],
]


class OverBudget(BaseException):
    """Raised from the profiling timer, past every `except Exception`."""


def _over_budget(signum, frame):
    raise OverBudget()


@pytest.fixture
def run_case(monkeypatch, capsys):
    """Run main(argv) on `text` as stdin under the budget: its exit code."""
    previous = signal.signal(signal.SIGPROF, _over_budget)

    def run(argv, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        signal.setitimer(signal.ITIMER_PROF, BUDGET_S)
        try:
            return main(argv + ["-"])
        except OverBudget:
            pytest.fail(f"over {BUDGET_S} s of CPU: {argv} on {text!r}")
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            capsys.readouterr()

    yield run
    signal.signal(signal.SIGPROF, previous)


def _mutated(rng, text: str) -> str:
    for _ in range(rng.randint(1, 4)):
        i, ch = rng.randrange(len(text) + 1), rng.choice(MUTATION_CHARS)
        new = rng.choice(["", ch, ch * rng.randint(2, 30)])
        text = text[:i] + new + text[i + rng.randint(0, 1) :]
    return text


def _coordinate(rng) -> int:
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-4, 4)
    if kind == 1:
        return rng.choice((-1, 1)) * (2**63 + rng.randint(-3, 3))
    return rng.randint(-(10**40), 10**40)


def _random_presentation(rng, vertices=(1, 2)) -> TubularPresentation:
    vertices = tuple(f"V{i}" for i in range(rng.randint(*vertices)))
    edges, n = [], rng.randint(1, 3)
    while len(edges) < n:
        v, w = (IntVec2(_coordinate(rng), _coordinate(rng)) for _ in range(2))
        if not v.is_zero() and not w.is_zero():
            edges.append(Edge(f"e{len(edges)}", *rng.choices(vertices, k=2), v, w))
    return TubularPresentation(vertices, tuple(edges), name="h")


def test_mutated_corpus_texts(run_case):
    rng = random.Random(20261020)
    bases = [unparse(entry.presentation) for entry in corpus()]
    codes = [run_case(["analyze"], _mutated(rng, bases[i % len(bases)])) for i in range(3000)]
    assert set(codes) == {0, 2}


def test_random_inputs_with_large_coordinates(run_case):
    rng = random.Random(20261021)
    for _ in range(300):
        text = unparse(_random_presentation(rng))
        for argv in COMMANDS:
            assert run_case(argv, text) in (0, 2), (argv, text)


def test_random_inputs_on_three_and_four_vertices(run_case):
    """The same draws on 3-4 vertices.  Five to eight vertices are left
    out: the equitable-set search is exponential in the vertices, and an
    8-vertex input still takes about 1.5 s (ROADMAP item 1)."""
    rng = random.Random(20261022)
    for _ in range(200):
        text = unparse(_random_presentation(rng, (3, 4)))
        for argv in COMMANDS:
            assert run_case(argv, text) in (0, 2), (argv, text)

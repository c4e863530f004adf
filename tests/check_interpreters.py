"""Command-line checks that need only the standard library.

    PYTHONPATH=src python tests/check_interpreters.py

Runs every golden command line through `cli.main` twice in-process and
compares both runs' output with its golden file, then runs 20,000 random
command lines for each of two seeds twice each.  Every line must give the
same status and bytes both times; argparse must parse a line that parses at
most once, and a line that it rejects on every run, where it prints help or
the usage error.  It prints one line per check and exits nonzero if any
fails.  Without pytest, it runs on any interpreter the package supports.

`tests/test_cli.py` imports its tables, `random_argv` and `run_twice` from
here and runs the same checks under pytest.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import re
import sys
import tempfile
from pathlib import Path

import tubular.cli
from tubular.core import GpqParams
from tubular.corpus import corpus, eg2_g1
from tubular.dsl import unparse

GOLDEN_DIR = Path(__file__).parent / "golden"
CORPUS_NAMES = [e.name for e in corpus()]
GPQ_NAMES = [e.name for e in corpus() if isinstance(e.presentation, GpqParams)]


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-")


# (golden file, argv); "{g}" stands for a file holding the eg2-g1 presentation,
# "{t}" for one holding TRUNCATED, whose 18-point loop has 18,564 matchings,
# more than the spectrum's budget of 10,000, which once counted matchings and
# cut the spectrum short; they group its circles in only two ways.
TRUNCATED = (
    "group G { vertex V; edge e1 : V(0,1) -> V(-1,-2); edge e2 : V(6,0) -> V(6,0); }\n"
)
GOLDEN = [
    ("corpus.txt", ["corpus"]),
    ("corpus-run.txt", ["corpus", "--run"]),
    ("corpus-run.json", ["corpus", "--run", "--json"]),
    *[(f"analyze-{_slug(n)}.txt", ["analyze", "--corpus", n]) for n in CORPUS_NAMES],
    *[
        (f"analyze-{_slug(n)}.json", ["analyze", "--corpus", n, "--json"])
        for n in CORPUS_NAMES
    ],
    *[
        (f"{cmd}-{_slug(n)}.txt", [cmd, "--corpus", n])
        for cmd in ("cat0", "fbc", "special")
        for n in CORPUS_NAMES
    ],
    *[(f"vrc-{_slug(n)}.txt", ["vrc", "--corpus", n]) for n in GPQ_NAMES],
    ("cubulate-gersten.txt", ["cubulate", "--corpus", "gersten"]),
    ("cubulate-gersten.json", ["cubulate", "--corpus", "gersten", "--json"]),
    ("cubulate-gersten.dot", ["cubulate", "--corpus", "gersten", "--dot"]),
    (
        "cubulate-gersten-all-matchings.json",
        ["cubulate", "--corpus", "gersten", "--all-matchings", "--json"],
    ),
    ("cubulate-bs12.txt", ["cubulate", "--corpus", "bs12"]),
    ("cubulate-truncated-all-matchings.txt", ["cubulate", "{t}", "--all-matchings"]),
    (
        "cubulate-truncated-all-matchings.json",
        ["cubulate", "{t}", "--all-matchings", "--json"],
    ),
    ("amalgam-retractor.txt", ["amalgam", "{g}", "1,0", "{g}", "1,0"]),
    ("amalgam-button.txt", ["amalgam", "{g}", "1,-1", "{g}", "1,0"]),
]


def golden_files(directory: Path) -> dict[str, Path]:
    """Write the files that "{g}" and "{t}" stand for into `directory`."""
    files = {"{g}": directory / "g.tub", "{t}": directory / "t.tub"}
    files["{g}"].write_text(unparse(eg2_g1()))
    files["{t}"].write_text(TRUNCATED)
    return files


# Tokens of random command lines: every command and option, values, and the
# other forms argparse reads: '--opt=value', option prefixes, help, '--',
# other tokens that start with '-', an empty token and tokens with a space.
COMMAND_NAMES = ["analyze", "cat0", "fbc", "special", "cubulate", "vrc", "corpus", "amalgam"]
ARGV_TOKENS = [
    *COMMAND_NAMES,
    *["--corpus", "--json", "--coord-bound", "--size-bound"],
    *["--all-matchings", "--dot", "--run"],
    *["--coord-bound=2", "--json=1", "--corpus=gersten", "--co", "--coord", "--all", "--j"],
    *["-h", "--help", "--", "-", "-1", "-1,0", "", " 3", "-x y"],
    *["2", "0", "x", "gersten", "1,0", "1,-1", "V:1,0"],
]


def random_argv(rng: random.Random) -> list[str]:
    """A random command line, usually led by a command name."""
    first = rng.choice(COMMAND_NAMES if rng.random() < 0.9 else ARGV_TOKENS)
    return [first, *rng.choices(ARGV_TOKENS, k=rng.randint(0, 6))]


@contextlib.contextmanager
def counted_parse_args():
    """Record the arguments of every call of argparse's `parse_args`."""
    calls = []
    parse_args = argparse.ArgumentParser.parse_args

    def counted(self, *args, **kwargs):
        calls.append(args)
        return parse_args(self, *args, **kwargs)

    argparse.ArgumentParser.parse_args = counted
    try:
        yield calls
    finally:
        argparse.ArgumentParser.parse_args = parse_args


def run_main(argv: list[str], stdin: str = "") -> tuple[str, str, str]:
    """`cli.main(argv)` in-process with the given stdin: its status, which
    tells a returned code from argparse's SystemExit, its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = f"return {tubular.cli.main(argv)}"
    except SystemExit as e:
        status = f"SystemExit {e.code}"
    finally:
        sys.stdin = saved
    return status, out.getvalue(), err.getvalue()


def run_twice(argv: list[str], stdin: str = "") -> tuple[str, str, str]:
    """Run argv through `cli.main` twice and return the first run's
    `run_main` result.  Both runs must give the same status and bytes.  A
    line that parses calls `parse_args` at most once, never on its second
    run; a line that argparse rejects calls it on both."""
    with counted_parse_args() as calls:
        first = run_main(argv, stdin)
        parsed = len(calls)
        second = run_main(argv, stdin)
    assert second == first, (argv, first, second)
    if first[0].startswith("SystemExit"):
        assert (parsed, len(calls)) == (1, 2), (argv, calls)
    else:
        assert parsed <= 1 and len(calls) == parsed, (argv, calls)
    return first


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        files = golden_files(Path(tmp))
        for golden, argv in GOLDEN:
            argv = [str(files.get(a, a)) for a in argv]
            try:
                status, out, err = run_twice(argv)
            except AssertionError:
                status = out = err = None
            ok = (status, err) == ("return 0", "") and (
                out.encode() == (GOLDEN_DIR / golden).read_bytes()
            )
            failed += not ok
            print(f"{'ok' if ok else 'FAIL'} golden {golden}")
    for seed in (0, 1):
        rng = random.Random(seed)
        try:
            rejected = sum(
                run_twice(random_argv(rng))[0].startswith("SystemExit")
                for _ in range(20_000)
            )
        except AssertionError as e:
            failed += 1
            print(f"FAIL run twice seed {seed}: {e}")
        else:
            print(f"ok run twice seed {seed}: 20000 lines, {rejected} rejected by argparse")
    print(f"Python {sys.version.split()[0]}: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

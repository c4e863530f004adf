"""Command-line checks that need only the standard library.

    PYTHONPATH=src python tests/check_interpreters.py

Runs every golden command line through `cli.main` in-process and compares
its output with its golden file, then checks that `cli._fast_args` returns
argparse's namespace wherever it reads a command line itself: on every
golden command line and on random ones.  It prints one line per check and
exits nonzero if any fails.  Without pytest, it runs on any interpreter the
package supports, where `cli._fast_args` reads argparse's private classes.

`tests/test_cli.py` imports its tables and `_agreement` from here and runs
the same checks under pytest.
"""

from __future__ import annotations

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


# Tokens of random command lines: every command and option, values, and what
# only argparse reads: '--opt=value', option prefixes, help, '--', other
# tokens that start with '-', an empty token and tokens with a space.
COMMAND_NAMES = ["analyze", "cat0", "fbc", "special", "cubulate", "vrc", "corpus", "amalgam"]
ARGV_TOKENS = [
    *COMMAND_NAMES,
    *["--corpus", "--json", "--coord-bound", "--size-bound"],
    *["--all-matchings", "--dot", "--run"],
    *["--coord-bound=2", "--json=1", "--corpus=gersten", "--co", "--coord", "--all", "--j"],
    *["-h", "--help", "--", "-", "-1", "-1,0", "", " 3", "-x y"],
    *["2", "0", "x", "gersten", "1,0", "1,-1", "V:1,0"],
]


def _agreement(seed: int, n: int) -> int:
    """Check `_fast_args` against argparse on n random command lines, and
    return how many of them it read itself."""
    rng = random.Random(seed)
    read = 0
    for _ in range(n):
        first = rng.choice(COMMAND_NAMES if rng.random() < 0.9 else ARGV_TOKENS)
        argv = [first, *rng.choices(ARGV_TOKENS, k=rng.randint(0, 6))]
        fast = tubular.cli._fast_args(argv)
        if fast is None:
            continue
        read += 1
        quiet = io.StringIO()
        try:
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                slow = tubular.cli._parser().parse_args(argv)
        except SystemExit:
            raise AssertionError(f"argparse refuses {argv!r}") from None
        assert vars(fast) == vars(slow), argv
    return read


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        files = golden_files(Path(tmp))
        for golden, argv in GOLDEN:
            argv = [str(files.get(a, a)) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tubular.cli.main(argv)
            fast = tubular.cli._fast_args(argv)
            ok = (
                code == 0
                and err.getvalue() == ""
                and out.getvalue().encode() == (GOLDEN_DIR / golden).read_bytes()
                and fast == tubular.cli._parser().parse_args(argv)
            )
            failed += not ok
            print(f"{'ok' if ok else 'FAIL'} golden {golden}")
    for seed in (0, 1):
        try:
            read = _agreement(seed, 20_000)
        except AssertionError as e:
            failed += 1
            print(f"FAIL agreement seed {seed}: {e}")
        else:
            print(f"ok agreement seed {seed}: {read} of 20000 read without argparse")
    print(f"Python {sys.version.split()[0]}: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""README.md's examples, checked against the package in this checkout: its
library blocks run, its CLI lines on built-in examples exit cleanly, and its
`analyze` example agrees with the golden output."""

import re
import shlex
from pathlib import Path

from tubular.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cli_lines_on_built_in_examples_exit_cleanly(capsys):
    argvs = [shlex.split(line, comments=True) for block in _blocks("sh") for line in block.splitlines()]
    commands = [
        argv[1:]
        for argv in argvs
        if argv[:1] == ["tubular"] and ("--corpus" in argv or argv[1:2] == ["corpus"])
    ]
    assert len(commands) == 7
    for argv in commands:
        assert main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_readme_analyze_example_begins_each_golden_line():
    example = re.search(r"^\$ tubular analyze --corpus gersten\n(.*?)^```", README, re.M | re.S)
    shown = example[1].splitlines()
    golden = (ROOT / "tests" / "golden" / "analyze-gersten.txt").read_text().splitlines()
    assert len(shown) == len(golden) == 7
    for line, want in zip(shown, golden):
        assert want.startswith(line.removesuffix("; ...")), (line, want)

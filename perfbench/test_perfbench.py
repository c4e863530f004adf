"""Tests of the benchmark's own parts: the seeded generators and the
independent certificate checker.  Run with `python3 -m pytest -q perfbench`."""

import copy
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checker  # noqa: E402
import workloads  # noqa: E402
from tubular import cli  # noqa: E402


def _texts(name, seed):
    wl = workloads.WORKLOADS[name]
    return json.dumps([inp.args for k in range(2) for inp in wl.inputs(seed, k)])


def test_generators_repeat_per_seed_and_differ_across_seeds():
    for name in workloads.WORKLOADS:
        assert _texts(name, 3) == _texts(name, 3), name
        assert _texts(name, 3) != _texts(name, 4), name


def test_checker_imports_no_tubular_module():
    code = "import sys, checker; sys.exit(any(m.startswith('tubular') for m in sys.modules))"
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True)


def _reports(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return {r["property"]: r["certificate"] for r in checker.load_reports(buf.getvalue())}


def test_checker_accepts_real_and_rejects_corrupted_certificates():
    eg2_v, eg2_e = workloads.CORPUS_DATA["eg2-g1"]
    ger_v, ger_e = workloads.CORPUS_DATA["gersten"]
    eg2 = _reports("analyze", "--corpus", "eg2-g1", "--json")
    gersten = _reports("analyze", "--corpus", "gersten", "--json")
    cub = _reports("cubulate", "--corpus", "gersten", "--json")
    sets = checker.sets_from_json(cub["equitable_set"])

    form = eg2["cat0"]
    assert checker.check_qform((form["a"], form["b"], form["c"]), eg2_e)
    assert not checker.check_qform((form["a"], form["b"], "3/1"), eg2_e)

    coeffs = checker.coeffs_from_json(eg2["fbc"])
    assert checker.check_functional(coeffs, eg2_e)
    assert not checker.check_functional({"V": (coeffs["V"][0], coeffs["V"][1] + 1)}, eg2_e)

    assert checker.check_equitable(sets, ger_v, ger_e)
    bad = {"V": [sets["V"][0]] + [(2 * x, 2 * y) for x, y in sets["V"][1:]]}
    assert not checker.check_equitable(bad, ger_v, ger_e)

    cycle = cub["dilation"]
    assert checker.check_dilation_cycle(cycle, sets, ger_e)
    broken = copy.deepcopy(cycle)
    broken["holonomy"] = "1/1"
    assert not checker.check_dilation_cycle(broken, sets, ger_e)
    reversed_step = copy.deepcopy(cycle)
    reversed_step["steps"][0]["direction"] *= -1
    assert not checker.check_dilation_cycle(reversed_step, sets, ger_e)
    assert not checker.check_dilation_cycle(cycle, {"V": [(0, 1), (1, 0)]}, ger_e)

    obstruction = gersten["cat0"]
    pairs = [(v, w) for _, _, _, v, w in ger_e]
    assert checker.check_cat0_obstruction(obstruction, pairs)
    wrong = dict(obstruction, values=["1/2"])
    assert not checker.check_cat0_obstruction(wrong, pairs)

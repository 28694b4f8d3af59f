"""Start-up structure.  The package runs on numpy and the standard library
alone: no module under ``src/nextjump`` imports scipy (read from the source),
and in a fresh interpreter where ``import scipy`` fails, every CLI data
command runs at its pinned flags and ``validate`` passes all fifteen
criteria.  scipy stays a test dependency, the independent oracle of the
tests.  Importing the CLI imports ``nextjump.validation`` eagerly, because
the benchmark's tracer hooks it by name, and builds no Gauss-Legendre rule
(``leggauss(96)`` costs about 10 ms, which start-up should not pay)."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import nextjump
from nextjump import cli, validation
from test_cli import PINNED

PACKAGE = pathlib.Path(nextjump.__file__).resolve().parent
SRC = str(PACKAGE.parent)


def _fresh(code: str, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, cwd=cwd)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    """No module of the package imports scipy, at module level or inside a
    function."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_cli_commands_load_no_scipy(tmp_path):
    """Every data command at its pinned flags, then ``validate`` over all
    fifteen criteria, one after another in one interpreter that cannot
    import scipy.  A criterion that does not pass prints its FAIL line, with
    its measured values and elapsed time, so a missed budget shows which."""
    assert ({argv[0] for argv, _, _ in PINNED.values()}
            == {c.name for c in cli.COMMANDS})
    runs = json.dumps({name: argv for name, (argv, _, _) in PINNED.items()})
    eager, rules, codes, report = _fresh(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from nextjump import cli, numerics\n"
        "eager = 'nextjump.validation' in sys.modules\n"
        "rules = numerics._gauss_rule.cache_info().currsize\n"
        "codes = {}\n"
        f"for name, argv in json.loads({runs!r}).items():\n"
        "    codes[name] = cli.main(argv + ['--out', name + '.csv'])\n"
        "codes['validate'] = cli.main(['validate', '--out', 'v.json'])\n"
        "with open('v.json') as fh:\n"
        "    report = json.load(fh)['results']\n"
        "print(json.dumps([eager, rules, codes, report]))\n",
        cwd=tmp_path)
    for r in report:
        if not r["passed"]:
            print(validation.format_line(validation.CriterionResult(**r)))
    passed = [r["index"] for r in report if r["passed"]]
    assert eager and rules == 0
    assert codes == dict.fromkeys([*PINNED, "validate"], 0)
    assert passed == list(range(1, 16))

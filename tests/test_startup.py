"""Start-up structure, checked in fresh interpreters: importing the package
or its CLI loads no scipy module, and ``validate`` loads every scipy module
the criteria reach before any criterion's clock starts."""

import json
import os
import subprocess
import sys

import nextjump

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nextjump.__file__)))


def _fresh(code: str):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    loaded = _fresh(
        "import json, sys\n"
        "import nextjump\n"
        "after_package = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
        "import nextjump.cli\n"
        "after_cli = sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')\n"
        "print(json.dumps([after_package, after_cli, 'nextjump.validation' in sys.modules]))\n")
    assert loaded == [[], [], True]


def test_validate_times_no_import():
    """A criterion that needs no scipy still leaves the criteria's scipy set
    loaded, so criteria 1 and 3 (the first users of scipy.integrate and
    scipy.stats) then load nothing new inside their clocks."""
    before, preloaded, new, passed = _fresh(
        "import json, sys\n"
        "from nextjump import validation\n"
        "def scipy_modules():\n"
        "    return {k for k in sys.modules if k.split('.')[0] == 'scipy'}\n"
        "before = sorted(scipy_modules())\n"
        "ok = validation.run_criterion(5, 'fast').passed\n"
        "preloaded = scipy_modules()\n"
        "results = validation.run_all('fast', [1, 3])\n"
        "print(json.dumps([before, sorted(preloaded),\n"
        "                  sorted(scipy_modules() - preloaded),\n"
        "                  ok and all(r.passed for r in results)]))\n")
    assert before == []
    assert {"scipy.integrate", "scipy.special", "scipy.stats"} <= set(preloaded)
    assert new == []
    assert passed

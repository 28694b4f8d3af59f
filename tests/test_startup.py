"""Start-up structure, checked in fresh interpreters: importing the package
or its CLI loads no scipy module, nor does sampling gaps on a ``NullFlow``,
checking an unraveling against its master equation, running the Fock oracle
or a ``NullFlow`` off its eigenmodes, or running any CLI data command, and
``validate`` loads every scipy module the criteria reach before any
criterion's clock starts."""

import json
import os
import subprocess
import sys

import nextjump
from nextjump import cli
from test_cli import PINNED

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nextjump.__file__)))


def _fresh(code: str, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, cwd=cwd)
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


def test_sample_gaps_loads_no_scipy():
    """The gap sampler's table and its inverse interpolant are numpy alone
    (scipy.interpolate would cost start-up time and memory)."""
    loaded = _fresh(
        "import json, sys\n"
        "from nextjump import atom3, trajectories\n"
        "from nextjump.numerics import RngStream\n"
        "p = atom3.Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0,\n"
        "                      beta1=1.0, beta2=0.0)\n"
        "m = atom3.effective_model(p)\n"
        "flow = trajectories.NullFlow(m.generator, m.initial_state)\n"
        "gaps = trajectories.sample_gaps(flow.survival, 1000,\n"
        "                                RngStream(1, 0), 900.0)\n"
        "print(json.dumps([sorted(k for k in sys.modules\n"
        "                         if k.split('.')[0] == 'scipy'),\n"
        "                  bool(flow.uses_eig), bool((gaps > 0).all())]))\n")
    assert loaded == [[], True, True]


def test_lindblad_consistency_loads_no_scipy():
    """The density-matrix reference of criterion 14 is numpy alone, for the
    atom (constant reset) and the cavity (operator reset): scipy.integrate
    would cost start-up time and memory."""
    loaded = _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from nextjump import atom3, cavity, trajectories\n"
        "pa = atom3.Atom3Params(omega1=1.0, omega2=0.7, delta2=0.5,\n"
        "                       beta1=1.0, beta2=0.8)\n"
        "psi0 = np.zeros(17, dtype=complex)\n"
        "psi0[[0, 2]] = 1.0\n"
        "mc = cavity.effective_model(cavity.CavityParams(kappa=1.0, nbar=2.0),\n"
        "                            16, initial_state=psi0)\n"
        "reps = [trajectories.lindblad_consistency(m, 20, t, seedbase=14)\n"
        "        for m, t in ((atom3.effective_model(pa), 3.0), (mc, 2.0))]\n"
        "print(json.dumps([sorted(k for k in sys.modules\n"
        "                         if k.split('.')[0] == 'scipy'),\n"
        "                  [r['ntraj'] for r in reps]]))\n")
    assert loaded == [[], [20, 20]]


def test_exp_action_loads_no_scipy():
    """The Fock oracle and a NullFlow off its eigenmodes (a 3 x 3 Jordan
    block, whose eigenbasis is singular) propagate by the numpy exp-action:
    scipy.integrate would cost start-up time and memory."""
    loaded = _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from nextjump import cavity, trajectories\n"
        "from nextjump.numerics import FockVector\n"
        "psi = cavity.evolve_fock_oracle(cavity.CavityParams(kappa=1.0, nbar=4.0),\n"
        "                                FockVector.vacuum(44), 2.0)\n"
        "flow = trajectories.NullFlow(np.eye(3, k=1), np.array([0.2, -0.5j, 1.0]))\n"
        "w = flow.survival(np.array([0.5, 3.0]))\n"
        "print(json.dumps([sorted(k for k in sys.modules\n"
        "                         if k.split('.')[0] == 'scipy'),\n"
        "                  bool(flow.uses_eig), psi.norm_sq() > 0.0,\n"
        "                  bool((w > 1.0).all())]))\n")
    assert loaded == [[], False, True, True]


def test_cli_commands_load_no_scipy(tmp_path):
    """Every data command at its pinned flags, one after another in one
    interpreter, loads no scipy module."""
    assert ({argv[0] for argv, _, _ in PINNED.values()}
            == {c.name for c in cli.COMMANDS})
    runs = json.dumps({name: argv for name, (argv, _, _) in PINNED.items()})
    loaded = _fresh(
        "import json, sys\n"
        "from nextjump import cli\n"
        "loaded = {}\n"
        f"for name, argv in json.loads({runs!r}).items():\n"
        "    assert cli.main(argv + ['--out', name + '.csv']) == 0, name\n"
        "    loaded[name] = sorted(k for k in sys.modules\n"
        "                          if k.split('.')[0] == 'scipy')\n"
        "print(json.dumps(loaded))\n", cwd=tmp_path)
    assert loaded == {name: [] for name in PINNED}


def test_validate_times_no_import():
    """A criterion that needs no scipy still leaves the criteria's scipy set
    loaded, so criteria 3 and 6 (the first users of scipy.special and
    scipy.integrate) then load nothing new inside their clocks, and neither
    loads scipy.stats (criterion 3's Kolmogorov-Smirnov test is numpy plus
    scipy.special.kolmogorov)."""
    before, preloaded, new, passed = _fresh(
        "import json, sys\n"
        "from nextjump import validation\n"
        "def scipy_modules():\n"
        "    return {k for k in sys.modules if k.split('.')[0] == 'scipy'}\n"
        "before = sorted(scipy_modules())\n"
        "ok = validation.run_criterion(5).passed\n"
        "preloaded = scipy_modules()\n"
        "results = [validation.run_criterion(i) for i in (1, 3, 6)]\n"
        "print(json.dumps([before, sorted(preloaded),\n"
        "                  sorted(scipy_modules() - preloaded),\n"
        "                  ok and all(r.passed for r in results)]))\n")
    assert before == []
    assert {"scipy.integrate", "scipy.special"} <= set(preloaded)
    assert new == []
    assert "scipy.stats" not in preloaded
    assert passed

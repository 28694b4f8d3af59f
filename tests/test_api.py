import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import nextjump

MODULES = ["nextjump"] + [f"nextjump.{m.name}"
                          for m in pkgutil.iter_modules(nextjump.__path__)]

#: the library modules, below the CLI, the criteria and the benchmark
LIBRARY = ["numerics", "trajectories", "cavity", "atom3", "transmon",
           "heterodyne", "readout"]

REPO = pathlib.Path(nextjump.__file__).resolve().parents[2]

#: public names that nothing in the package, the demos or the benchmark
#: calls, kept because they state a paper claim or serve as an oracle
CALLED_FROM_TESTS_ONLY = {
    "trajectories.run_trajectory":
        "one trajectory of the jump unraveling; the benchmark's tracer "
        "hooks it by its dotted name",
    "cavity.shifted_basis_check":
        "displaced detection at sqrt(nbar) freezes the norm, on the Fock "
        "oracle",
    "cavity.wrong_state_flow":
        "dark-period flow of the bright state under the detuned manifold",
    "atom3.amplitude_c1_closed":
        "closed-form fast-level amplitude after a reset",
    "atom3.project_slow":
        "asymptotic slow-branch state after a click-free wait",
    "atom3.unitary_c1":
        "unitary fast-level amplitude, the no-measurement contrast",
    "transmon.bright_population_exact":
        "2-D quadrature oracle for the Gaussian-kernel bright population",
    "transmon.bright_population_gauss":
        "Gaussian-kernel bright population inside the monitored norm",
    "transmon.diffusion_overlap":
        "kappa -> 0 limit of the collapsing overlap, exp(-C^2 t^2/8)",
    "transmon.reduced_two_level":
        "three-amplitude closure of the slow two-level sector",
    "transmon.two_level_fock":
        "full Fock ground truth for multiscale_volterra, in both frames",
    "transmon.validity_ratio":
        "perturbative-regime monitor of the dark-spectrum asymptotics",
    "heterodyne.ensemble_unraveling_check":
        "the conditioned norm is a martingale: the ensemble averages to the "
        "master equation",
    "heterodyne.sample_filtered_statistic":
        "exact law of the filtered record S, <|S|^2> = 1 - e^{-kappa t}",
    "readout.y_consistency_check":
        "integrating the log-decrement Y back reproduces W",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_without_duplicates(name):
    mod = importlib.import_module(name)
    exported = mod.__all__
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", LIBRARY)
def test_public_definitions_are_exported(name):
    mod = importlib.import_module(f"nextjump.{name}")
    public = sorted(n for n, obj in vars(mod).items()
                    if not n.startswith("_")
                    and (inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == mod.__name__)
    assert [n for n in public if n not in mod.__all__] == []


def _references() -> set:
    """Names the package, the demos and the benchmark mention as a name, an
    attribute or an import, outside the definition that binds the name."""
    files = [p for d in ("src/nextjump", "demos", "perfbench")
             for p in sorted((REPO / d).glob("*.py"))]
    assert files, f"no sources under {REPO}"
    found = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node, inside):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                inside = inside | {node.name}
            if isinstance(node, ast.Name):
                ref = node.id
            elif isinstance(node, ast.Attribute):
                ref = node.attr
            elif isinstance(node, ast.alias):
                ref = node.name.rsplit(".", 1)[-1]
            else:
                ref = None
            if ref is not None and ref not in inside:
                found.add(ref)
            for child in ast.iter_child_nodes(node):
                visit(child, inside)

        visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_or_a_reason():
    refs = _references()
    unused = [f"{m}.{n}" for m in LIBRARY
              for n in importlib.import_module(f"nextjump.{m}").__all__
              if n not in refs]
    assert sorted(set(unused) - set(CALLED_FROM_TESTS_ONLY)) == []
    # an entry whose name gained a caller, or left the package, goes too
    assert sorted(set(CALLED_FROM_TESTS_ONLY) - set(unused)) == []
    assert all(CALLED_FROM_TESTS_ONLY.values())

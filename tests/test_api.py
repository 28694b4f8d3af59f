import ast
import dataclasses
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
        "the only public route to the click record of an operator-reset "
        "unraveling",
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


def _sources() -> list:
    """Parsed modules of the package, the demos and the benchmark."""
    files = [p for d in ("src/nextjump", "demos", "perfbench")
             for p in sorted((REPO / d).glob("*.py"))]
    assert files, f"no sources under {REPO}"
    return [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in files]


def _references(trees) -> set:
    """Names the trees mention as a name, an attribute or an import, outside
    the definition that binds the name."""
    found = set()

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

    for tree in trees:
        visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_or_a_reason():
    refs = _references(_sources())
    unused = [f"{m}.{n}" for m in LIBRARY
              for n in importlib.import_module(f"nextjump.{m}").__all__
              if n not in refs]
    assert sorted(set(unused) - set(CALLED_FROM_TESTS_ONLY)) == []
    # an entry whose name gained a caller, or left the package, goes too
    assert sorted(set(CALLED_FROM_TESTS_ONLY) - set(unused)) == []
    assert all(CALLED_FROM_TESTS_ONLY.values())


def _call_sites(trees) -> dict:
    """{callee name: [(positions, starred, keywords, double_starred)]} for
    every call in the trees.

    A callee is the called name or attribute.  ``cls(...)`` inside a
    classmethod calls its class, and the benchmark's ``step(out, label, fn,
    *args)`` calls fn with args.  positions counts the leading positional
    arguments; a ``*args`` after them may set any later position, and a
    ``**kwargs`` any keyword."""
    sites = {}

    def visit(node, owner, cls_of):
        if isinstance(node, ast.ClassDef):
            owner, cls_of = node.name, None
        elif isinstance(node, ast.FunctionDef) and owner is not None and any(
                isinstance(d, ast.Name) and d.id == "classmethod"
                for d in node.decorator_list):
            cls_of = owner
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if (isinstance(func, ast.Name) and func.id == "step"
                    and len(args) >= 3):
                func, args = args[2], args[3:]
            if isinstance(func, ast.Name):
                name = cls_of if func.id == "cls" and cls_of else func.id
            else:
                name = getattr(func, "attr", None)
            starred = [i for i, a in enumerate(args)
                       if isinstance(a, ast.Starred)]
            keywords = {k.arg for k in node.keywords}
            sites.setdefault(name, []).append(
                (starred[0] if starred else len(args), bool(starred),
                 keywords - {None}, None in keywords))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, cls_of)

    for tree in trees:
        visit(tree, None, None)
    return sites


def _parameters(fn, method: bool) -> list:
    """(position, name) of each defaulted parameter of fn, position None for
    a keyword-only one; a method's positions start after self or cls."""
    params = list(inspect.signature(fn).parameters.values())[int(method):]
    return [(i if p.kind is p.POSITIONAL_OR_KEYWORD else None, p.name)
            for i, p in enumerate(params) if p.default is not p.empty]


def _unset(sites: dict, targets) -> list:
    """Labels ``label(name=)`` of the defaulted parameters in targets,
    (label, callee, parameters) triples, that no call site sets."""
    return sorted(
        f"{label}({name}=)" for label, callee, params in targets
        for pos, name in params
        if not any((pos is not None and (pos < npos or star))
                   or name in kws or kwstar
                   for npos, star, kws, kwstar in sites.get(callee, ())))


def _library_api():
    """(targets, members) of the library modules: (label, callee, defaulted
    parameters) per public function, class constructor and method, and
    (label, name) per public method or property."""
    targets, members = [], []
    for m in LIBRARY:
        mod = importlib.import_module(f"nextjump.{m}")
        for n in mod.__all__:
            obj = getattr(mod, n)
            if inspect.isfunction(obj):
                targets.append((f"{m}.{n}", n, _parameters(obj, False)))
                continue
            if inspect.isfunction(obj.__init__):
                targets.append((f"{m}.{n}", n,
                                _parameters(obj.__init__, True)))
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                fn = getattr(member, "__func__", member)
                if isinstance(member, property) or inspect.isfunction(fn):
                    members.append((f"{m}.{n}.{attr}", attr))
                if inspect.isfunction(fn):
                    method = not isinstance(member, staticmethod)
                    targets.append((f"{m}.{n}.{attr}", attr,
                                    _parameters(fn, method)))
    return targets, members


#: defaulted parameters and members that nothing in the package, the demos
#: or the benchmark sets or calls, kept as oracles of a paper claim or as
#: physical fields of a model
SET_FROM_TESTS_ONLY = {
    "heterodyne.sample_tilted_currents(start=)":
        "vacuum start of the tilted law, against the fixed-amplitude one",
    "heterodyne.null_correspondence(alpha0=)":
        "the locked-record flow matches the shifted detection off the "
        "fixed point too",
    "heterodyne.HeterodyneParams(B=)":
        "detection-beam amplitude; the current peak scales with it",
    "heterodyne.HeterodyneParams(omega=)":
        "heterodyne offset; omega = 0 is homodyne detection",
    "cavity.CavityParams(gamma_shift=)":
        "coherent detection reference; sqrt(nbar) freezes the norm",
}


def test_every_parameter_and_member_has_a_caller_or_a_reason():
    trees = _sources()
    targets, members = _library_api()
    reads = _reads(trees)
    found = _unset(_call_sites(trees), targets) + sorted(
        label for label, name in members if name not in reads)
    assert sorted(set(found) - set(SET_FROM_TESTS_ONLY)) == []
    # an entry that gained a caller, or left the package, goes too
    assert sorted(set(SET_FROM_TESTS_ONLY) - set(found)) == []
    assert all(SET_FROM_TESTS_ONLY.values())


SYNTHETIC = {
    "position": "fit(data, 3)",
    "keyword": "fit(data, weights=w)",
    "step": "step(out, 'scan', scan, data, 4)",
    "cls": "class Grid:\n"
           "    @classmethod\n"
           "    def even(cls, n):\n"
           "        return cls(n, 0.5)",
}


def _synthetic_targets():
    def fit(x, window=1, order=2, *, weights=None, unused=None):
        pass

    def scan(x, depth=0):
        pass

    def grid_init(self, n, spacing=1.0, origin=0.0):
        pass

    return [("m.fit", "fit", _parameters(fit, False)),
            ("m.scan", "scan", _parameters(scan, False)),
            ("m.Grid", "Grid", _parameters(grid_init, True))]


def test_parameter_finder_reports_what_nothing_sets():
    sites = _call_sites([ast.parse("\n".join(SYNTHETIC.values()))])
    assert _unset(sites, _synthetic_targets()) == [
        "m.Grid(origin=)", "m.fit(order=)", "m.fit(unused=)"]


@pytest.mark.parametrize("route, param", [
    ("position", "m.fit(window=)"),
    ("keyword", "m.fit(weights=)"),
    ("step", "m.scan(depth=)"),
    ("cls", "m.Grid(spacing=)"),
])
def test_parameter_finder_counts_each_route(route, param):
    rest = [src for r, src in SYNTHETIC.items() if r != route]
    sites = _call_sites([ast.parse("\n".join(rest))])
    assert param in _unset(sites, _synthetic_targets())


def _reads(trees) -> set:
    """Names the trees read, as an attribute ``x.name`` or as the name
    argument of ``getattr(x, "name")`` or ``hasattr(x, "name")``; a
    declaration, a keyword or any other string is no read."""
    found = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.add(node.attr)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("getattr", "hasattr")
                  and len(node.args) >= 2
                  and isinstance(node.args[1], ast.Constant)
                  and isinstance(node.args[1].value, str)):
                found.add(node.args[1].value)
    return found


def _unread(trees, fields) -> list:
    """Labels of the (label, name) fields that the trees never read."""
    reads = _reads(trees)
    return sorted(label for label, name in fields if name not in reads)


def _library_fields() -> list:
    """(label, name) per field of each dataclass the library modules
    export."""
    fields = []
    for m in LIBRARY:
        mod = importlib.import_module(f"nextjump.{m}")
        for n in mod.__all__:
            obj = getattr(mod, n)
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                fields += [(f"{m}.{n}.{f.name}", f.name)
                           for f in dataclasses.fields(obj)]
    return fields


#: fields of exported records that nothing in the package, the demos or the
#: benchmark reads, kept with a reason
READ_FROM_TESTS_ONLY: dict = {}


def test_every_field_has_a_reader_or_a_reason():
    unread = _unread(_sources(), _library_fields())
    assert sorted(set(unread) - set(READ_FROM_TESTS_ONLY)) == []
    # an entry whose field gained a reader, or left the package, goes too
    assert sorted(set(READ_FROM_TESTS_ONLY) - set(unread)) == []
    assert all(READ_FROM_TESTS_ONLY.values())


FIELD_SYNTHETIC = {
    "attribute": "total = rec.times.sum()",
    "getattr": "row = getattr(rec, 'alpha')",
    "declared": "@dataclass\n"
                "class Rec:\n"
                "    times: float\n"
                "    alpha: float\n"
                "    tmax: float\n"
                "    final: float = 0.0",
    "keyword": "rec = Rec(times=1.0, alpha=0.5, tmax=2.0)",
    "string": "flag = Flag('tmax', float, 6.0)",
}

FIELDS = [(f"m.Rec.{n}", n) for n in ("times", "alpha", "tmax", "final")]


def test_field_finder_reports_what_nothing_reads():
    trees = [ast.parse("\n".join(FIELD_SYNTHETIC.values()))]
    assert _unread(trees, FIELDS) == ["m.Rec.final", "m.Rec.tmax"]


@pytest.mark.parametrize("route, field", [
    ("attribute", "m.Rec.times"),
    ("getattr", "m.Rec.alpha"),
])
def test_field_finder_counts_each_read(route, field):
    rest = [src for r, src in FIELD_SYNTHETIC.items() if r != route]
    assert field in _unread([ast.parse("\n".join(rest))], FIELDS)

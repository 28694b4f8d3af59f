"""Every script in demos/ runs to the end and prints its report."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert [d.name for d in DEMOS] == ["atom3_telegraph.py",
                                       "cavity_survival.py",
                                       "transmon_dark_spectrum.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    out = capsys.readouterr().out
    assert len(out.splitlines()) >= 5
    assert "nan" not in out.lower()

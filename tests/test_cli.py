import json

import pytest

from nextjump import cli


def _run(argv):
    return cli.main(argv)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_cavity_w_outputs(tmp_path):
    out = tmp_path / "w.csv"
    rc = _run(["cavity-w", "--out", str(out), "--npts", "11", "--tmax", "2"])
    assert rc == 0
    data = _read(out)
    assert b"\r\n" in data   # canonical CSV line endings
    lines = data.decode().strip().splitlines()
    assert lines[0] == "t,W,D"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    side = json.loads((tmp_path / "w.json").read_text())
    assert set(side) == {"config", "summary", "flags", "wall_time_seconds"}
    assert side["config"]["npts"] == 11
    assert side["config"]["nbar"] == 4.0
    assert side["flags"] == {"npts": 11, "tmax": 2.0}
    assert side["wall_time_seconds"] >= 0.0


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["telegraph", "--ntraj", "50", "--seed", "7"]
    monkeypatch.setenv("NEXTJUMP_THREADS", "3")
    assert _run(argv + ["--out", str(a)]) == 0
    monkeypatch.setenv("NEXTJUMP_THREADS", "1")
    assert _run(argv + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)
    side = json.loads((tmp_path / "a.json").read_text())
    assert side["config"]["seed"] == 7


def test_alias_matches_primary_name(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    common = ["--npts", "41", "--tmax", "2"]
    assert _run(["readout-figure1", "--out", str(a)] + common) == 0
    assert _run(["figure1", "--out", str(b)] + common) == 0
    assert _read(a) == _read(b)


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nbar": 2.0, "npts": 21}))
    out = tmp_path / "w.csv"
    rc = _run(["cavity-w", "--config", str(cfg), "--npts", "11",
               "--out", str(out)])
    assert rc == 0
    side = json.loads((tmp_path / "w.json").read_text())
    assert side["config"]["nbar"] == 2.0   # from the config file
    assert side["config"]["npts"] == 11    # explicit flag wins
    assert side["flags"] == {"npts": 11}
    # the sidecar config reproduces the run byte for byte
    out2 = tmp_path / "w2.csv"
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps(side["config"]))
    assert _run(["cavity-w", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert _read(out) == _read(out2)


def test_config_errors(tmp_path):
    out = tmp_path / "w.csv"
    bad_key = tmp_path / "k.json"
    bad_key.write_text(json.dumps({"nbarr": 2.0}))
    assert _run(["cavity-w", "--config", str(bad_key), "--out", str(out)]) == 2
    bad_type = tmp_path / "t.json"
    bad_type.write_text(json.dumps({"npts": "many"}))
    assert _run(["cavity-w", "--config", str(bad_type), "--out", str(out)]) == 2
    not_dict = tmp_path / "l.json"
    not_dict.write_text("[1, 2]")
    assert _run(["cavity-w", "--config", str(not_dict), "--out", str(out)]) == 2
    assert _run(["cavity-w", "--config", str(tmp_path / "absent.json"),
                 "--out", str(out)]) == 2
    bad_value = tmp_path / "v.json"
    bad_value.write_text(json.dumps({"npts": -4}))
    assert _run(["cavity-w", "--config", str(bad_value), "--out", str(out)]) == 2


def test_usage_errors():
    assert _run([]) == 2
    assert _run(["no-such-command"]) == 2
    assert _run(["heterodyne-current", "--mode", "sideways"]) == 2


def test_numerical_failure_exit_code(tmp_path):
    out = tmp_path / "m.csv"
    rc = _run(["transmon-multiscale", "--dt", "0.01", "--out", str(out)])
    assert rc == 3
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--chi", "nan"), ("--kappa", "inf"),
                                        ("--nbar", "-inf")])
def test_non_finite_flag_exit_code(tmp_path, flag, value):
    out = tmp_path / "d.csv"
    assert _run(["cavity-detuned", flag, value, "--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "d.json").exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"chi": NaN}')   # json reads NaN as a float
    assert _run(["cavity-detuned", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_summary_exit_code(tmp_path):
    # the drive overflows the propagator, so the fitted rate is NaN
    out = tmp_path / "n.csv"
    rc = _run(["atom3-null", "--omega1", "1e200", "--npts", "40",
               "--out", str(out)])
    assert rc == 3
    assert not out.exists() and not (tmp_path / "n.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_exact_law_exit_code(tmp_path):
    # finite flags, but the ostensible log-weight mean -kappa*nbar*t overflows
    out = tmp_path / "o.csv"
    rc = _run(["heterodyne-current", "--mode", "ostensible", "--nbar", "1e308",
               "--npaths", "10", "--out", str(out)])
    assert rc == 3
    assert not out.exists() and not (tmp_path / "o.json").exists()


def test_telegraph_reports_censored(tmp_path):
    out = tmp_path / "t.csv"
    assert _run(["telegraph", "--ntraj", "50", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.json").read_text())
    assert side["summary"]["n_censored"] == 0


def test_io_failure_exit_code(tmp_path):
    rc = _run(["cavity-w", "--npts", "5",
               "--out", str(tmp_path / "no-such-dir" / "w.csv")])
    assert rc == 4


def test_atom3_null_columns(tmp_path):
    out = tmp_path / "null.csv"
    rc = _run(["atom3-null", "--npts", "40", "--tmax", "20",
               "--fit-start", "5", "--out", str(out)])
    assert rc == 0
    lines = _read(out).decode().strip().splitlines()
    assert lines[0] == "t,W,logW"
    assert len(lines) == 41
    side = json.loads((tmp_path / "null.json").read_text())
    assert "summary" in side


def test_validate_subcommand(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = _run(["validate", "--criteria", "5", "--out", str(report)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "criterion 05" in text
    assert "PASS" in text
    assert "validate: 1/1 passed (level=fast)" in text
    doc = json.loads(report.read_text())
    assert doc["level"] == "fast"
    assert len(doc["results"]) == 1
    assert doc["results"][0]["passed"] is True
    assert doc["results"][0]["index"] == 5


def test_validate_bad_criteria():
    assert _run(["validate", "--criteria", "0"]) == 2
    assert _run(["validate", "--criteria", "5,abc"]) == 2

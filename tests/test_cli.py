import csv
import hashlib
import json
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from nextjump import cli
from nextjump.atom3 import Atom3Params, effective_model
from nextjump.cavity import CavityParams
from nextjump.numerics import RngStream
from nextjump.readout import snr_heterodyne
from nextjump.trajectories import NullFlow, sample_gaps

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
#: environment of a fresh interpreter on one BLAS thread
ONE_THREAD = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
                  OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


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


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["telegraph", "--ntraj", "50", "--seed", "7"]
    assert _run(argv + ["--out", str(a)]) == 0
    assert _run(argv + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)
    side = json.loads((tmp_path / "a.json").read_text())
    assert side["config"]["seed"] == 7


def _run_pinned(tmp_path, argv):
    """Run a CLI command in a fresh interpreter on one BLAS thread (numpy
    2.4 with its bundled OpenBLAS 0.3, x86-64); returns the CSV path and the
    sidecar."""
    out = tmp_path / "x.csv"
    subprocess.run([sys.executable, "-m", "nextjump.cli", *argv,
                    "--out", str(out)], env=ONE_THREAD, check=True)
    return out, json.loads((tmp_path / "x.json").read_text())


#: every data command (heterodyne-current in each mode) at small flags, with
#: the sha256 of its CSV and of its sorted sidecar summary.  The two
#: transmon hashes were computed while each command still ran its own copy
#: of the fit; atom3-telegraph's when its sampler took the closing pair,
#: which moved the last digits of its gaps (see HELD); the others before
#: the CSV writer took columns in place of rows.  A column or summary key
#: named in HELD is left out of the hashes and checked against a reference
#: instead.
PINNED = {
    "cavity-w": (
        ["cavity-w", "--npts", "41", "--tmax", "3"],
        "06adc62d8a0d6747a51b6e741a20170693ad326c2751221e54a28c421e0ba30e",
        "f4efe4f64ed7aa90696e266273490ac3f75e8afe5c97d0db2b811aceec100d82"),
    "cavity-detuned": (
        ["cavity-detuned", "--npts", "41", "--tmax", "2"],
        "e4e61152b063018a68f5780375c3a96cb275ead4b4abcdb3652e759a1ab7f4d7",
        "93f3abe43fa8ac122d10d9d2e046e2f3b2bae9d02e7983ae7190ad47e85d2e9f"),
    "atom3-null": (
        ["atom3-null", "--npts", "200", "--tmax", "60", "--fit-start", "20"],
        "2b69db791261b70f42b205e51942fe676732725e8eafe76bdb49183be42787ff",
        "9193b4c9aaece0e7aee38b973b9af1b5c1b01987c32f36747376c6f2cc0161f3"),
    "atom3-telegraph": (
        ["atom3-telegraph", "--ntraj", "60", "--seed", "3"],
        "ea156a523da22389609d85f90708c67431b821e5e3b2c381151564f25c805e8f",
        "4ed6dabd3223e45da9ac3ebfef3ad3ceb6d01d4c04cf5b43c1fefe25fed7b780"),
    "transmon-dark": (
        ["transmon-dark", "--nmax", "60", "--npts", "12"],
        "67b5d338002998b7b7a953d7d7b454c0d89b867b71799a19e2b52ab47f42d58f",
        "0e9acaf8a98d7008a21790b07cdeb689d3caeac9748bb5f0955558d7b3fe8d0a"),
    "transmon-multiscale": (
        ["transmon-multiscale", "--tmax", "3"],
        "2e87b21d14f705dd2f77405cd303a5090c47a119eabb0f2ea8c1d15e1a25147e",
        "1c9e3a61417e945259648dcd54cc7d433d21cf135ef55a869fab300caf284a48"),
    "heterodyne-sse": (
        ["heterodyne-sse", "--duration", "0.5", "--seed", "5"],
        "2036b15c7b4a399d7d4a903755f5de9fcac65b0f8da1de27507bb46e87a69ffd",
        "7f429cf924e7865b9133cff97e38be9e3625dc114e1998491692b36d50a0aaaf"),
    "heterodyne-current-tilted": (
        ["heterodyne-current", "--mode", "tilted", "--npaths", "200",
         "--duration", "2", "--seed", "5"],
        "f0b0a384be55d3f4f2c96cde773394beb5d7ff0d5672b9208275ce8403a98520",
        "0b76a384689225ef3c35cdaad2bd98e4dff31008e2c0f6a8d94d2782296ebf10"),
    "heterodyne-current-raw": (
        ["heterodyne-current", "--mode", "raw", "--npaths", "200",
         "--duration", "2", "--seed", "5"],
        "3c1654343a7081b9b67a888b8a00385de2732e29b530557bca21008c9bfab850",
        "46443b1df8184eecd3624894e9059e5e5c3b450dfdec9e8e18a0dc95d7f44f3b"),
    "heterodyne-current-ostensible": (
        ["heterodyne-current", "--mode", "ostensible", "--npaths", "200",
         "--duration", "2", "--seed", "5"],
        "6468158bd9ae703e0c6983dc742e611accbd00893e18ba59631773602320a121",
        "5b89dd124264ffcbf576cf60c177b0368655eb192f8d68c0e2bda3f2f34fe6c1"),
    "readout-figure1": (
        ["readout-figure1", "--npts", "121", "--tmax", "3"],
        "9e7549d811d567011567cedda4a6ad04c6c5110dc4d465464b00f1ac9a9b4e69",
        "ae116495fa1b1f97e955fd368b41c4af828489359d66a662831c9b3035e1ce02"),
}

#: name -> CSV columns and summary keys left out of its hashes, which
#: ``test_outputs_are_pinned`` checks against a reference instead
HELD = {"readout-figure1": ("eps_dr",),
        "atom3-telegraph": ("gap", "p_dark", "p_dark_se")}

_PIN_SCRIPT = """
import hashlib, json, sys
from nextjump import cli
out = {}
for name, (argv, held) in json.loads(sys.argv[1]).items():
    if cli.main(argv + ["--out", name + ".csv"]) != 0:
        raise SystemExit(name + " failed")
    with open(name + ".csv", "rb") as fh:
        data = fh.read()
    columns = {}
    if held:
        rows = [line.split(",") for line in data.decode().split("\\r\\n")[:-1]]
        columns = {h: [r[i] for r in rows[1:]] for i, h in enumerate(rows[0])}
        keep = [i for i, h in enumerate(rows[0]) if h not in held]
        data = "".join(",".join(r[i] for i in keep) + "\\r\\n"
                       for r in rows).encode()
    with open(name + ".json") as fh:
        summary = json.load(fh)["summary"]
    columns.update({k: summary.pop(k) for k in held if k in summary})
    text = json.dumps(summary, sort_keys=True)
    out[name] = [hashlib.sha256(data).hexdigest(),
                 hashlib.sha256(text.encode()).hexdigest(), columns]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def pinned_hashes(tmp_path_factory):
    """All of PINNED in one fresh interpreter on one BLAS thread (numpy 2.4
    with its bundled OpenBLAS 0.3, x86-64): name -> [csv, summary] sha256
    and, for a command in HELD, its CSV columns, header -> cells, and its
    HELD summary keys with their values.
    The dense eig of transmon-dark rounds differently with the number of
    BLAS threads, hence one thread."""
    runs = json.dumps({name: [argv, HELD.get(name, ())]
                       for name, (argv, _, _) in PINNED.items()})
    proc = subprocess.run([sys.executable, "-c", _PIN_SCRIPT, runs],
                          cwd=tmp_path_factory.mktemp("pinned"),
                          env=ONE_THREAD, check=True, capture_output=True,
                          text=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_are_pinned(pinned_hashes, name):
    """The CSV bytes and the sidecar summary (the fitted rates live there)
    of every data command.  A change to shared code, or to the CSV writer,
    that moves any written digit fails here, but for a HELD column, which
    its own check holds instead."""
    _, csv_sha256, summary_sha256 = PINNED[name]
    csv_got, summary_got, columns = pinned_hashes[name]
    assert [csv_got, summary_got] == [csv_sha256, summary_sha256]
    if name == "readout-figure1":
        _assert_eps_dr_matches_mpmath(columns)
    if name == "atom3-telegraph":
        _assert_telegraph_gaps_match_reference(columns)


def _assert_eps_dr_matches_mpmath(columns):
    """readout-figure1's eps_dr is erfc(SNR/2)/2 of the SNR at its tau
    column (dispersive pull chi/kappa = 1/2, nbar = 100, kappa = 1), held to
    mpmath at 40 digits: within 1e-15 relative wherever the value exceeds
    1e-300, and within 1e-315 below that (scipy.special.erfc misses by
    4.9e-15 here)."""
    tau = np.array(columns["tau"], dtype=float)
    eps = np.array(columns["eps_dr"], dtype=float)
    snr = snr_heterodyne(CavityParams(kappa=1.0, chi=0.5, nbar=100.0), tau)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.erfc(mpmath.mpf(x) / 2) / 2)
                        for x in snr])
    assert eps.size == 121
    assert np.all(np.abs(eps - ref) <= 1e-15 * np.maximum(ref, 1e-300))


def _assert_telegraph_gaps_match_reference(columns):
    """atom3-telegraph --ntraj 60 --seed 3: every gap, p_dark and p_dark_se
    within 1e-12 relative of the values it wrote with the 2,048-cell ln W
    table (tests/data/atom3_telegraph_seed3.json; the root-finder stops on
    brackets 1e-13 wide, so a new seed may move the last digits), and each
    gap solving ln W(gap) = ln u for its level u of RngStream(3, 0) on the
    command's default atom."""
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "atom3_telegraph_seed3.json")) as fh:
        want = json.load(fh)
    gaps = np.array(columns["gap"], dtype=float)
    ref = np.array(want["gap"])
    assert gaps.shape == ref.shape == (60,)
    assert np.all(np.abs(gaps - ref) <= 1e-12 * ref)
    for key in ("p_dark", "p_dark_se"):
        assert abs(columns[key] - want[key]) <= 1e-12 * abs(want[key])
    model = effective_model(Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0,
                                        beta1=1.0, beta2=0.0))
    flow = NullFlow(model.generator, model.initial_state)
    u = RngStream(3, 0).generator().random(60)
    assert np.max(np.abs(np.log(flow.survival(gaps)) - np.log(u))) <= 1e-12


def test_telegraph_output_is_pinned(tmp_path):
    """``telegraph --ntraj 200 --seed 7`` against the values it wrote while
    its gaps were still seeded from a uniform ln W table: the discrete
    columns (k, channel, dark) and summary keys by hash, and every gap,
    p_dark and p_dark_se to 1e-12 relative (the root-finder stops on
    brackets 1e-13 wide, so a new seed may move the last digits).  Each gap
    must also solve ln W(gap) = ln u for its level u of RngStream(7, 0)."""
    out, side = _run_pinned(tmp_path, ["telegraph", "--ntraj", "200",
                                       "--seed", "7"])
    with open(os.path.join(os.path.dirname(__file__), "data",
                           "telegraph_seed7.json")) as fh:
        want = json.load(fh)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    discrete = json.dumps([[r[0], r[2], r[3]] for r in rows]).encode()
    assert hashlib.sha256(discrete).hexdigest() == (
        "e75c47a26ef5c96c8d7f40540bc0ee23dd459d1db7b5ad19f9a6da5524e25a13")
    summary = side["summary"]
    rest = {k: v for k, v in summary.items() if k not in ("p_dark",
                                                         "p_dark_se")}
    assert set(rest) == {"n_dark", "n_censored", "dark_threshold",
                         "p_dark_formula", "beta_ell", "dark_ended_by_fast",
                         "dark_ended_by_slow"}
    text = json.dumps(rest, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "b31e4aa132587bc162d69924cdc37a1dd3a218a76044c2843eaa172a13c76f06")
    gaps = np.array([float(r[1]) for r in rows[1:]])
    ref = np.array(want["gap"])
    assert gaps.shape == ref.shape == (200,)
    assert np.all(np.abs(gaps - ref) <= 1e-12 * ref)
    for key in ("p_dark", "p_dark_se"):
        assert abs(summary[key] - want[key]) <= 1e-12 * abs(want[key])
    cfg = side["config"]
    p = Atom3Params(omega1=cfg["omega1"], omega2=cfg["epsilon"] * cfg["beta1"],
                    delta2=cfg["delta2"], beta1=cfg["beta1"],
                    beta2=cfg["beta2"])
    model = effective_model(p)
    flow = NullFlow(model.generator, model.initial_state)
    u = RngStream(7, 0).generator().random(200)
    assert summary["n_censored"] == 0
    assert np.max(np.abs(np.log(flow.survival(gaps)) - np.log(u))) <= 1e-12


def _telegraph_rows(tmp_path, argv):
    """Data rows of the telegraph CSV and the sidecar's summary."""
    out = tmp_path / "t.csv"
    assert _run(["telegraph", *argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return rows, json.loads((tmp_path / "t.json").read_text())["summary"]


def test_telegraph_gaps_are_one_sample_gaps_call(tmp_path):
    """--ntraj 5000, above one of telegraph_run's 4,096-gap batches: the gap
    column is one sample_gaps call of 5000 on RngStream(11, 0), bit for
    bit."""
    rows, _ = _telegraph_rows(tmp_path, ["--ntraj", "5000", "--seed", "11"])
    model = effective_model(Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0,
                                        beta1=1.0, beta2=0.0))
    flow = NullFlow(model.generator, model.initial_state)
    want = sample_gaps(flow.survival, 5000, RngStream(11, 0), 900.0)
    assert np.array_equal([float(r[1]) for r in rows], want)


def test_telegraph_dark_column_counts_n_dark(tmp_path):
    rows, summary = _telegraph_rows(tmp_path, ["--ntraj", "2000", "--seed",
                                               "5"])
    assert summary["n_dark"] > 0
    assert sum(int(r[3]) for r in rows) == summary["n_dark"]


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


@pytest.mark.parametrize("argv", [
    ["atom3-null", "--beta2", "-1"],
    ["atom3-telegraph", "--beta2", "-0.5"],
    # durations that round to a record of no noise step
    ["heterodyne-sse", "--duration", "0.00001"],
    ["heterodyne-current", "--duration", "0.0001", "--npaths", "10"],
    ["heterodyne-current", "--duration", "0.0001", "--npaths", "10",
     "--mode", "ostensible"]])
def test_out_of_range_model_parameter_exit_code(tmp_path, argv, capsys):
    """A parameter record refusing a value is bad input (exit 2), not a
    numerical failure, and nothing is written."""
    out = tmp_path / "p.csv"
    assert _run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() and not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("argv", [
    ["transmon-multiscale", "--fit-start", "100", "--tmax", "3"],   # no point
    ["transmon-dark", "--npts", "1", "--nmax", "40"],               # one point
    ["atom3-null", "--fit-start", "200"],                           # no point
    ["atom3-null", "--fit-start", "149.99"]])                       # one point
def test_decay_fit_on_too_few_points_exit_code(tmp_path, argv):
    out = tmp_path / "f.csv"
    assert _run(argv + ["--out", str(out)]) == 3
    assert not out.exists() and not (tmp_path / "f.json").exists()


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


def test_non_finite_survival_exit_code(tmp_path, monkeypatch):
    # sample_gaps refuses a NaN survival with FloatingPointError, a
    # numerical failure; unchecked, NaN beyond t = 50 capped the gaps there
    survival = NullFlow.survival
    monkeypatch.setattr(NullFlow, "survival", lambda self, t: np.where(
        np.asarray(t) > 50.0, np.nan, survival(self, t)))
    out = tmp_path / "t.csv"
    assert _run(["telegraph", "--ntraj", "10", "--out", str(out)]) == 3
    assert not out.exists()


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


def test_successive_calls_share_no_values(tmp_path):
    """The parser is built once per process; flags given to one call must not
    reach the next."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["cavity-w", "--npts", "11", "--nbar", "9", "--out", str(a)]) == 0
    assert _run(["cavity-w", "--tmax", "2", "--out", str(b)]) == 0
    side = json.loads((tmp_path / "b.json").read_text())
    assert side["flags"] == {"tmax": 2.0}
    assert side["config"]["npts"] == 601
    assert side["config"]["nbar"] == 4.0
    assert len(_read(b).decode().strip().splitlines()) == 602
    assert _run(["heterodyne-current", "--npaths", "5", "--duration", "1",
                 "--mode", "raw", "--out", str(a)]) == 0
    assert _run(["heterodyne-current", "--npaths", "5", "--duration", "1",
                 "--out", str(b)]) == 0
    side = json.loads((tmp_path / "b.json").read_text())
    assert side["config"]["mode"] == "tilted"
    assert "mode" not in side["flags"]


def test_cells_format_by_type(tmp_path):
    """Floats (numpy included) keep shortest round-trip text, ints and bool
    arrays print as integers, everything else as str."""
    out = tmp_path / "x.csv"
    columns = [[0.1], np.array([1 / 3]), [7], np.array([True]),
               np.array([-2]), np.array([False]), ["a,b"],
               np.array([0.1], dtype=np.float32), [1e-300]]
    cli._write_outputs(str(out), ("c",) * 9, columns, {})
    assert _read(out).decode().splitlines()[1] == (
        '0.1,0.3333333333333333,7,1,-2,0,"a,b",0.10000000149011612,1e-300')


@pytest.mark.parametrize("header,columns", [
    (("a", "b"), [np.arange(3.0), np.arange(2.0)]),
    (("a", "b", "c"), [np.arange(3.0), range(3)]),
], ids=["short-column", "missing-column"])
def test_mismatched_columns_write_nothing(tmp_path, header, columns):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="columns of lengths"):
        cli._write_outputs(str(out), header, columns, {})
    assert not out.exists() and not (tmp_path / "x.json").exists()


def test_validate_subcommand(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc = _run(["validate", "--criteria", "5", "--out", str(report)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "criterion 05" in text
    assert "PASS" in text
    assert "validate: 1/1 passed" in text.splitlines()
    doc = json.loads(report.read_text())
    assert "level" not in doc
    assert len(doc["results"]) == 1
    assert doc["results"][0]["passed"] is True
    assert doc["results"][0]["index"] == 5
    gates = doc["results"][0]["gates"]
    assert [(g["name"], g["relation"], g["bound"]) for g in gates] == [
        ("log_W", "==", -5e8), ("elapsed", "<=", 1.0)]
    assert all(g["passed"] for g in gates)


def test_validate_bad_criteria():
    assert _run(["validate", "--criteria", "0"]) == 2
    assert _run(["validate", "--criteria", "5,abc"]) == 2
    # there is one protocol: a level is an unknown argument
    assert _run(["validate", "--level", "full"]) == 2

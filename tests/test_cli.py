import hashlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import subdiv
from subdiv import cli, schemes
from subdiv.cli import main


def run(args):
    return main(args)


def test_analyze_chaikin_ok(capsys):
    assert run(["analyze", "--scheme", "chaikin"]) == 0
    out = capsys.readouterr().out
    assert "K=0 n=1 mu=0.5" in out


def test_analyze_linear_bspline(capsys):
    assert run(["analyze", "--scheme", "linear_bspline"]) == 0
    assert "mu=0.5" in capsys.readouterr().out


def test_analyze_perturbed_precondition(capsys):
    assert run(["analyze", "--scheme", "perturbed_chaikin", "--k-range", "1:8"]) == 3
    out = capsys.readouterr().out
    assert "FAILS" in out
    assert "NotConstantReproducing" in out


def test_analyze_precondition_past_listed_levels(tmp_path, capsys):
    # levels 0-16 are listed and reproduce constants; the search reaches 18
    good = {"base": -1, "coeffs": [0.25, 0.75, 0.75, 0.25]}
    bad = {"base": -1, "coeffs": [0.3, 0.75, 0.75, 0.25]}
    path = tmp_path / "late.json"
    path.write_text(json.dumps({"kind": "table", "masks": [good] * 18 + [bad] * 2, "N": 2}))
    out = tmp_path / "report.json"
    assert run(["analyze", "--scheme", str(path), "--out", str(out)]) == 3
    reason = json.loads(out.read_text())["reason"]
    assert reason["type"] == "NotConstantReproducing"
    assert reason["level"] == 18


def test_analyze_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["analyze", "--scheme", "derham:gamma=2,alpha=1.5",
                "--k-range", "1:12", "--out", str(out), "--verbose"]) == 0
    obj = json.loads(out.read_text())
    assert obj["contraction"]["n"] == 1
    assert obj["levels"]["1"]["reproduces_constants"] is True
    assert obj["scan"]


def test_compare_derham(tmp_path, capsys):
    prefix = tmp_path / "cmp"
    code = run(["compare", "--scheme", "derham:gamma=2,alpha=1.5",
                "--comparator", "derham_stationary:gamma=2",
                "--k-range", "1:256", "--out", str(prefix)])
    assert code == 0
    obj = json.loads((tmp_path / "cmp.json").read_text())
    assert obj["similar"] == "yes"
    assert obj["equivalent"] == "not-summable-in-window"
    csv_lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert csv_lines[0] == "k,diff,partial_sum"
    assert len(csv_lines) == 257


def test_compare_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        assert run(["compare", "--scheme", "perturbed_chaikin",
                    "--comparator", "chaikin", "--k-range", "1:64",
                    "--out", str(prefix)]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_analyze_stationary_long_range_is_quick(monkeypatch, capsys):
    """A stationary scheme has one mask, so a long --k-range costs one level."""
    reads = []
    mask_at = schemes.SchemeSpec.mask_at

    def counted(self, k):
        reads.append(k)
        assert len(reads) <= 100, "read level after level of a stationary scheme"
        return mask_at(self, k)

    monkeypatch.setattr(schemes.SchemeSpec, "mask_at", counted)
    start = time.perf_counter()
    assert run(["analyze", "--scheme", "chaikin", "--k-range", f"1:{10**9}"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "K=0 n=1 mu=0.5" in capsys.readouterr().out


def test_certify_derham_ok(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--scheme", "derham:gamma=1.5,alpha=2.5",
                "--comparator", "derham_stationary:gamma=1.5",
                "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    cert = obj["certificate"]
    assert obj["certified"] is True
    assert cert["mu_star"] == pytest.approx(4.0 / 7.0, abs=1e-12)
    assert cert["C"] == cert["Gamma"] / (1.0 - cert["mu_hat"])


def test_certify_perturbed_exit3(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certify", "--scheme", "perturbed_chaikin",
                "--comparator", "chaikin", "--out", str(out)])
    assert code == 3
    obj = json.loads(out.read_text())
    assert obj["certified"] is False
    assert obj["reason"]["type"] == "NotConstantReproducing"
    assert obj["reason"]["level"] == 1


def test_certify_inconclusive_exit4(tmp_path):
    # enormous drift: similarity holds analytically, the window can't close
    code = run(["certify", "--scheme", "derham:gamma=2,alpha=1000",
                "--comparator", "chaikin", "--out", str(tmp_path / "c.json")])
    assert code == 4
    obj = json.loads((tmp_path / "c.json").read_text())
    assert obj["reason"]["type"] == "TailNotReached"


def test_certify_eta_override(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--scheme", "chaikin", "--comparator", "chaikin",
                "--mu", "0.5", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["certificate"]
    assert cert["holder_exponent"] == pytest.approx(1.0, abs=1e-15)
    assert cert["provenance"] == "theorem2"


def test_refine_csv(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    assert run(["refine", "--scheme", "chaikin", "--levels", "8",
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,delta_norm,cauchy_norm,bound"
    assert lines[1].startswith("0,1.0,0.25,")
    assert "rho_emp" in capsys.readouterr().out


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_refine_golden_digest(tmp_path):
    out = tmp_path / "decay.csv"
    assert run(["refine", "--scheme", "derham:gamma=2.3,alpha=1.1",
                "--levels", "14", "--out", str(out)]) == 0
    assert sha256(out) == "c290f5571f4b5127762acab1afdee7ddc68806a07dfd155494afdbcfcd95acfa"


def test_refine_exact_zero_gaps_rate(capsys):
    assert run(["refine", "--scheme", "linear_bspline", "--levels", "8"]) == 0
    assert "rho_emp = 0.0\n" in capsys.readouterr().out


def test_refine_with_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--scheme", "chaikin", "--comparator", "chaikin",
                "--out", str(cert_path)]) == 0
    out = tmp_path / "decay.csv"
    assert run(["refine", "--scheme", "chaikin", "--levels", "8",
                "--certificate", str(cert_path), "--out", str(out)]) == 0
    assert "certified bounds hold: True" in capsys.readouterr().out
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[3]) == pytest.approx(7.0, abs=1e-12)  # Gamma * mu_hat**0


@pytest.mark.parametrize("payload", [True, False], ids=["payload", "bare"])
def test_refine_certificate_target(payload, tmp_path, capsys):
    """A certificate file that names its target is refused for another
    scheme (exit 3); a bare certificate names none and is accepted."""
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--scheme", "derham:gamma=2,alpha=1.5", "--comparator", "chaikin",
                "--out", str(cert_path)]) == 0
    if not payload:
        cert_path.write_text(json.dumps(json.loads(cert_path.read_text())["certificate"]))
    capsys.readouterr()
    code = run(["refine", "--scheme", "chaikin", "--levels", "8", "--certificate", str(cert_path)])
    captured = capsys.readouterr()
    if payload:
        assert code == 3
        reason = one_record(captured.out)["reason"]
        assert reason["type"] == "InvalidParameter"
        assert '"name": "derham"' in reason["message"]
        assert '"coeffs": [0.25, 0.75, 0.75, 0.25]' in reason["message"]
    else:
        assert code == 0
        assert "certified bounds hold" in captured.out


@pytest.mark.parametrize("level, code", [(1, 0), (5, 3)])
def test_refine_certificate_start_level(level, code, tmp_path, capsys):
    """Certified bounds hold for runs that start at the scheme's k0 only;
    a later start is refused (exit 3) instead of being checked."""
    scheme = "derham:gamma=2,alpha=1.5"
    cert_path = tmp_path / "c.json"
    assert run(["certify", "--scheme", scheme, "--comparator", "chaikin",
                "--out", str(cert_path)]) == 0
    data = tmp_path / "f.json"
    data.write_text(json.dumps({"start": -8, "values": [0] * 8 + [1] + [0] * 8,
                                "level": level}))
    capsys.readouterr()
    assert run(["refine", "--scheme", scheme, "--levels", "16", "--initial", str(data),
                "--certificate", str(cert_path)]) == code
    out = capsys.readouterr().out
    if code:
        reason = one_record(out)["reason"]
        assert reason["type"] == "InvalidParameter"
        assert "level 1, not at level 5" in reason["message"]
    else:
        assert "certified bounds hold: True" in out


def test_refine_custom_initial(tmp_path, capsys):
    data = tmp_path / "window.json"
    data.write_text(json.dumps({"start": -4, "values": [0, 0, 0, 1, 1, 0, 0, 0, 0],
                                "level": 0}))
    assert run(["refine", "--scheme", "chaikin", "--levels", "6",
                "--initial", str(data)]) == 0


def test_figure1(tmp_path, capsys):
    prefix = tmp_path / "fig1"
    assert run(["figure", "1", "--gamma", "2", "--levels", "10",
                "--out", str(prefix)]) == 0
    files = sorted(tmp_path.glob("fig1_alpha_*.csv"))
    assert len(files) == 5
    header = files[0].read_text().splitlines()[0]
    assert header == "x,value"
    out = capsys.readouterr().out
    peaks = [float(line.rsplit("=", 1)[1]) for line in out.strip().splitlines()
             if line.startswith("alpha")]
    assert peaks == sorted(peaks, reverse=True)


def test_figure1_golden_digests(tmp_path):
    prefix = tmp_path / "fig1"
    assert run(["figure", "1", "--levels", "12", "--out", str(prefix)]) == 0
    assert {p.name: sha256(p) for p in tmp_path.glob("fig1_alpha_*.csv")} == {
        "fig1_alpha_+2.5.csv": "aa62b0bab61647f7d7460d8dd16d0985482216717273755fcf6e0f6c7dd76ce5",
        "fig1_alpha_+1.5.csv": "bdd3836f1884c4a515ca404891fd1f58e5d8118249e6f66304b095083981a1f5",
        "fig1_alpha_+0.5.csv": "b6e3832eed8f81e5ff19a7cc1fa987d98b9755f0b2cdad51c2d50cda6dbfeadd",
        "fig1_alpha_-0.5.csv": "93ad228d24b838d0b25536ce1d8a755e1a562acf52ffe0c5505335c834226c77",
        "fig1_alpha_-1.5.csv": "564c94b916a33a03c7dfd59e4e4c13cb468ed9b66f249d4048f7c625163d96a6",
    }


def test_figure2(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run(["figure", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,x,value"
    levels = {line.split(",")[0] for line in lines[1:]}
    assert levels == {"9", "13", "17"}
    assert sha256(out) == "a5c850a87596eccc160745c182cb6bb3f6994a290be6d6e42ec3f10e31b0c3f7"
    assert "do not decay" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code, digests", [
    pytest.param(
        ["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--k-range", "1:12",
         "--out", "report.json", "--verbose"], 0,
        {"report.json": "1792be2e413248d74607c5e16530201b00f8d6be4c1cdd290558b9bf177c1bc7"},
        id="analyze-verbose"),
    pytest.param(
        ["compare", "--scheme", "derham:gamma=2,alpha=1.5",
         "--comparator", "derham_stationary:gamma=2", "--k-range", "1:256", "--out", "cmp"], 0,
        {"cmp.json": "d52ae40bd0ed760487f84ddf006a7d755dcfc8001991b1d05a899c30f2a64f4d",
         "cmp.csv": "dbeb027dbbf4d79b5ffa066a58a03ee956e673698a10edfd4c8389a14770cbf3"},
        id="compare"),
    pytest.param(
        ["certify", "--scheme", "derham:gamma=1.5,alpha=2.5",
         "--comparator", "derham_stationary:gamma=1.5", "--out", "cert.json"], 0,
        {"cert.json": "39eb0d59827d4e1e5ec52f68a4bb4b22537c8b7c0ee5210650347974f81b7814"},
        id="certify"),
    pytest.param(
        ["certify", "--scheme", "perturbed_chaikin", "--comparator", "chaikin",
         "--out", "fail.json"], 3,
        {"fail.json": "f73f402bcb8c9a0ea221309286592da4aa83d2c64892aa5d9e924ad0c2acf0f7"},
        id="certify-exit3"),
])
def test_json_golden_digests(argv, code, digests, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
    assert {p.name: sha256(p) for p in tmp_path.iterdir()} == digests


@pytest.mark.parametrize("argv", [
    pytest.param(["refine", "--scheme", "chaikin", "--tol", "1e-9"], id="refine-tol"),
    pytest.param(["refine", "--scheme", "chaikin", "--k-range", "0:8"], id="refine-k-range"),
    pytest.param(["compare", "--scheme", "chaikin", "--comparator", "chaikin", "--verbose"],
                 id="compare-verbose"),
    pytest.param(["figure", "2", "--verbose"], id="figure2-verbose"),
    pytest.param(["analyze", "--scheme", "chaikin", "--format", "json"], id="analyze-format"),
    pytest.param(["certify", "--scheme", "chaikin", "--comparator", "chaikin", "--window", "64"],
                 id="certify-window"),
    pytest.param(["figure", "2", "--gamma", "5"], id="figure2-gamma"),
    pytest.param(["figure", "2", "--levels", "3"], id="figure2-levels"),
])
def test_removed_options_exit2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("values, code", [
    pytest.param([float("nan")], 2, id="nan"),
    pytest.param([float("inf")], 2, id="inf"),
    pytest.param([1e308, -1e308], 3, id="adjacent-1e308"),
    pytest.param([1.7e308], 3, id="single-1.7e308"),
])
def test_refine_non_finite_initial(values, code, tmp_path, capsys):
    """NaN and inf are refused on load; data that overflow while refining
    are refused at the level where a norm or gap leaves the floats."""
    data = tmp_path / "window.json"
    data.write_text(json.dumps({"start": -4, "values": [0, 0, 0, 1, *values, 0, 0, 0],
                                "level": 0}))
    assert run(["refine", "--scheme", "chaikin", "--levels", "6",
                "--initial", str(data)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert "initial values must be finite" in captured.err
    else:
        reason = json.loads(captured.out)["reason"]
        assert reason["type"] == "InvalidParameter"
        assert " at level " in reason["message"]


@pytest.mark.parametrize("argv", [
    pytest.param(["refine", "--scheme", "chaikin", "--levels", "60"], id="refine-levels"),
    pytest.param(["refine", "--scheme", "chaikin", "--halfwidth", str(10**12)],
                 id="refine-halfwidth"),
    pytest.param(["refine", "--scheme", "chaikin", "--levels", "60",
                  "--initial", "window.json"], id="refine-initial"),
    pytest.param(["figure", "1", "--levels", "60"], id="figure1-levels"),
    pytest.param(["figure", "2", "--halfwidth", str(10**12), "--out", "fig2.csv"],
                 id="figure2-halfwidth"),
])
def test_memory_budget_refusal(argv, tmp_path, monkeypatch, capsys):
    """A run whose windows would outgrow the memory budget exits 3 before
    it allocates them."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "window.json").write_text(json.dumps(VALID_INITIAL))
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2**20
    assert "memory budget" in capsys.readouterr().err
    assert not (tmp_path / "fig2.csv").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "--scheme", "chaikin", "--verbose", "--n-max", "60"],
                 id="analyze-verbose"),
    pytest.param(["certify", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2", "--n-max", "60"],
                 id="certify"),
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--K-max", str(10**9)],
                 id="analyze-K-max"),
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--window", str(10**9)],
                 id="analyze-window"),
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--k-range", f"1:{10**9}"], id="analyze-k-range"),
    pytest.param(["compare", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2", "--k-range", f"1:{10**9}"],
                 id="compare-k-range"),
    pytest.param(["certify", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2", "--k-range", f"1:{10**9}"],
                 id="certify-k-range"),
])
def test_n_max_budget_refusal(argv, capsys):
    """An n-fold product stencil holds about len(q) * 2**n coefficients, so
    an exponential --n-max exits 3 before any product is composed; so does
    a --K-max, --window or --k-range whose levels would not fit, before the
    first level is read."""
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2**20
    assert "memory budget" in capsys.readouterr().err


def test_memory_budget_admits_benchmark_runs():
    """The budget admits the deepest runs of the benchmark session, at the
    default halfwidth 8 (17 values), with a margin of 4x: refine --levels 16,
    figure 1 --levels 14 --out and figure 2 --out (which refines to 17)."""
    for levels, per_value in ((16, cli._ARRAY_BYTES), (14, cli._ROW_BYTES),
                              (17, cli._ROW_BYTES)):
        cli._check_memory(4 * 17, 1, levels, per_value)


NAN_COEFF_SCHEME = {"kind": "stationary", "N": 2,
                    "mask": {"base": -1, "coeffs": [0.25, float("nan"), 0.75, 0.25]}}


@pytest.mark.parametrize("argv, code", [
    pytest.param(["figure", "1", "--gamma", "nan"], 3, id="figure1-gamma-nan"),
    pytest.param(["figure", "1", "--gamma", "inf"], 3, id="figure1-gamma-inf"),
    pytest.param(["compare", "--scheme", "derham:gamma=nan,alpha=1", "--comparator", "chaikin",
                  "--out", "cmp"], 2, id="compare-gamma-nan"),
    pytest.param(["compare", "--scheme", "derham:gamma=2,alpha=inf",
                  "--comparator", "derham_stationary:gamma=2"], 2, id="compare-alpha-inf"),
    pytest.param(["analyze", "--scheme", "nan.json", "--out", "report.json"], 2,
                 id="analyze-nan-coefficient"),
])
def test_non_finite_scheme_parameters_exit_codes(argv, code, tmp_path, monkeypatch, capsys):
    """A NaN or infinite scheme parameter or coefficient is refused with
    the exit code a negative gamma gets, and writes no output file."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.json").write_text(json.dumps(NAN_COEFF_SCHEME))
    assert run(argv) == code
    captured = capsys.readouterr()
    assert "must be finite" in captured.err
    if code == 3:
        # one failure record and nothing else: no "peak =" line
        record = json.loads(captured.out)
        assert record["ok"] is False and record["reason"]["type"] == "InvalidParameter"
        assert "peak =" not in captured.out
    else:
        assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["nan.json"]


def test_bad_scheme_exit2(capsys):
    assert run(["analyze", "--scheme", "not_a_scheme"]) == 2
    assert run(["analyze", "--scheme", "missing_file.json"]) == 2


@pytest.mark.parametrize("k_range", ["5", "5:", "a:b"])
def test_malformed_k_range_exit2(k_range, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--scheme", "chaikin", "--k-range", k_range])
    assert exc.value.code == 2
    assert "--k-range: must look like A:B" in capsys.readouterr().err


def test_malformed_json_exit2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run(["analyze", "--scheme", str(bad)]) == 2


def test_console_entry_point():
    # the subprocess imports the same subdiv as this test, installed or not
    src = str(Path(subdiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "subdiv.cli", "analyze", "--scheme", "chaikin"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "mu=0.5" in proc.stdout


CHAIKIN_JSON = {"base": -1, "coeffs": [0.25, 0.75, 0.75, 0.25]}
VALID_SCHEMES = [
    {"kind": "stationary", "mask": CHAIKIN_JSON, "N": 2},
    {"kind": "table", "masks": [CHAIKIN_JSON] * 12, "k0": 0, "N": 2},
    {"kind": "formula", "name": "derham",
     "params": {"gamma": 2.0, "eps": "alpha_over_k", "alpha": 1.5}, "k0": 1, "N": 2},
    {"kind": "formula", "name": "derham",
     "params": {"gamma": 2.0, "eps": [1.5 / k for k in range(1, 13)]}, "k0": 1, "N": 2},
]
VALID_INITIAL = {"start": -4, "values": [0, 0, 0, 1, 1, 0, 0, 0, 0], "level": 0}
BAD_VALUES = (None, True, -1, 0, 1.5, 1e308, -1e308, float("nan"), float("inf"),
              "", "x", [], {}, [0, "x"], {"x": 1})


@pytest.mark.parametrize("scheme", [VALID_SCHEMES[1], VALID_SCHEMES[3]],
                         ids=["table-12", "derham-eps-table"])
def test_compare_default_range_clamped(scheme, tmp_path, capsys):
    """compare clamps its default range to both schemes' domains, as
    analyze and certify do; a range outside a domain still exits 3."""
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme))
    comparator = "chaikin" if scheme["kind"] == "table" else "derham_stationary:gamma=2"
    out = tmp_path / "cmp"
    assert run(["compare", "--scheme", str(path), "--comparator", comparator,
                "--out", str(out)]) == 0
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == list(range(scheme["k0"], scheme["k0"] + 12))
    assert run(["compare", "--scheme", str(path), "--comparator", comparator,
                "--k-range", "13:64"]) == 3
    assert "empty on this scheme's domain" in capsys.readouterr().err


def json_paths(obj, path=()):
    """Every key path in a JSON value, the root's empty path included."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        items = ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


def mutate(obj, rng):
    """A copy of a JSON value with one value swapped for a bad one, or one
    object key dropped, and the value swapped in (None for a drop)."""
    path = rng.choice(list(json_paths(obj)))
    if not path:
        bad = rng.choice(BAD_VALUES)
        return bad, bad
    obj = json.loads(json.dumps(obj))  # a copy that shares no lists or objects
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.25:
        del parent[path[-1]]
        return obj, None
    bad = parent[path[-1]] = rng.choice(BAD_VALUES)
    return obj, bad


def non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def test_malformed_input_files_exit_codes(tmp_path, capsys):
    """Seeded mutations of valid scheme, initial-window and certificate
    files end in a documented exit code, never in an exception; a scheme
    file with a NaN or infinite value in it is refused on load (exit 2).
    Every exit 3 or 4 leaves one failure record on stdout."""
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--scheme", "chaikin", "--comparator", "chaikin",
                "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    certificates = [payload, payload["certificate"]]
    path = tmp_path / "input.json"
    refine_chaikin = ["refine", "--scheme", "chaikin", "--levels", "6"]
    rng = random.Random(20261018)
    for case in range(210):
        codes = (0, 2, 3, 4)
        if case % 3 == 0:
            scheme, bad = mutate(rng.choice(VALID_SCHEMES), rng)
            path.write_text(json.dumps(scheme))
            argv = rng.choice([
                ["analyze", "--scheme", str(path)],
                ["compare", "--scheme", str(path), "--comparator", "chaikin",
                 "--k-range", "1:16"],
                ["certify", "--scheme", str(path), "--comparator", "chaikin"],
                ["refine", "--scheme", str(path), "--levels", "6"],
            ])
            if non_finite(bad):
                codes = (2,)
        elif case % 3 == 1:
            path.write_text(json.dumps(mutate(VALID_INITIAL, rng)[0]))
            argv = refine_chaikin + ["--initial", str(path)]
        else:
            path.write_text(json.dumps(mutate(rng.choice(certificates), rng)[0]))
            argv = refine_chaikin + ["--certificate", str(path)]
        code = run(argv)
        assert code in codes, path.read_text()
        out = capsys.readouterr().out
        if code in (3, 4):
            record = one_record(out)
            assert record["certified" if argv[0] == "certify" else "ok"] is False
            assert record["reason"]["type"]


BOX_SCHEME = {"kind": "stationary", "mask": {"base": 0, "coeffs": [1.0, 1.0]}, "N": 1}


def one_record(text: str) -> dict:
    """The one JSON record in a command's output, after any plain lines."""
    lines = text.splitlines(keepends=True)
    start = lines.index("{\n")
    assert "{\n" not in lines[:start]
    return json.loads("".join(lines[start:]))  # refuses trailing text


@pytest.mark.parametrize("argv, code, verdict, path, kind", [
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--k-range", "0:16"],
                 3, "ok", None, "InvalidParameter", id="analyze-k-range"),
    pytest.param(["analyze", "--scheme", "chaikin", "--n-max", "60", "--verbose"],
                 3, "ok", None, "InvalidParameter", id="analyze-n-max"),
    pytest.param(["analyze", "--scheme", "perturbed_chaikin", "--k-range", "1:16"],
                 3, "ok", None, "NotConstantReproducing", id="analyze-exit3"),
    pytest.param(["analyze", "--scheme", "box.json", "--out", "report.json"],
                 4, "ok", "report.json", "ContractionNotFound", id="analyze-exit4"),
    pytest.param(["compare", "--scheme", "chaikin", "--comparator", "chaikin",
                  "--k-range", "1:4", "--out", "cmp"],
                 3, "ok", "cmp.json", "InvalidParameter", id="compare"),
    pytest.param(["certify", "--scheme", "chaikin", "--comparator", "derham:gamma=2,alpha=1.5"],
                 3, "certified", None, "InvalidParameter", id="certify"),
    pytest.param(["certify", "--scheme", "perturbed_chaikin", "--comparator", "chaikin",
                  "--out", "cert.json"],
                 3, "certified", "cert.json", "NotConstantReproducing", id="certify-exit3"),
    pytest.param(["certify", "--scheme", "derham:gamma=2,alpha=1000", "--comparator", "chaikin",
                  "--out", "cert.json"],
                 4, "certified", "cert.json", "TailNotReached", id="certify-exit4"),
    pytest.param(["refine", "--scheme", "chaikin", "--levels", "60"],
                 3, "ok", None, "InvalidParameter", id="refine"),
    pytest.param(["refine", "--scheme", "chaikin", "--initial", "one.json"],
                 3, "ok", None, "EmptyOutput", id="refine-empty-output"),
    pytest.param(["figure", "1", "--levels", "60"], 3, "ok", None, "InvalidParameter",
                 id="figure1-levels"),
    pytest.param(["figure", "1", "--gamma", "nan"], 3, "ok", None, "InvalidParameter",
                 id="figure1-gamma"),
    pytest.param(["figure", "2", "--halfwidth", "0"], 3, "ok", None, "InvalidParameter",
                 id="figure2-halfwidth"),
    pytest.param(["certify", "--scheme", "chaikin", "--comparator", "box.json"],
                 4, "certified", None, "ContractionNotFound", id="certify-box-exit4"),
    # an --out in a directory that does not exist: the record goes to stdout
    pytest.param(["certify", "--scheme", "chaikin", "--comparator", "chaikin",
                  "--out", "missing/cert.json"],
                 3, "certified", None, "FileNotFoundError", id="certify-unwritable"),
    pytest.param(["certify", "--scheme", "perturbed_chaikin", "--comparator", "chaikin",
                  "--out", "missing/cert.json"],
                 3, "certified", None, "NotConstantReproducing", id="certify-exit3-unwritable"),
    pytest.param(["compare", "--scheme", "chaikin", "--comparator", "chaikin",
                  "--out", "missing/cmp"],
                 3, "ok", None, "FileNotFoundError", id="compare-unwritable"),
    pytest.param(["compare", "--scheme", "chaikin", "--comparator", "chaikin",
                  "--k-range", "1:4", "--out", "missing/cmp"],
                 3, "ok", None, "InvalidParameter", id="compare-exit3-unwritable"),
    pytest.param(["refine", "--scheme", "chaikin", "--levels", "8", "--out", "missing/decay.csv"],
                 3, "ok", None, "FileNotFoundError", id="refine-unwritable"),
])
def test_failure_record(argv, code, verdict, path, kind, tmp_path, monkeypatch, capsys):
    """Every exit 3 or 4 writes one failure record to the command's record
    path (its JSON --out, or stdout when there is none or it cannot be
    written) and one stderr line naming the type."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "box.json").write_text(json.dumps(BOX_SCHEME))
    (tmp_path / "one.json").write_text(json.dumps({"start": 0, "values": [1.0], "level": 0}))
    assert run(argv) == code
    captured = capsys.readouterr()
    if path:
        assert "{" not in captured.out
        record = one_record((tmp_path / path).read_text())
    else:
        record = one_record(captured.out)
    assert record[verdict] is False
    assert record["reason"]["type"] == kind
    prefix = "inconclusive" if code == 4 else "error"
    assert captured.err.splitlines() == [
        f"{prefix}: {kind}: {record['reason']['message']}",
        *(["hint: enlarge --halfwidth"] if kind == "EmptyOutput" else []),
        # every product of the box rule's difference rule has norm 1
        *(["closest miss: mu = 1.0 at n = 1, K = 0"] if kind == "ContractionNotFound" else []),
    ]
    assert not (tmp_path / "missing").exists()
    if argv[0] == "analyze":
        assert record["contraction"] is None and "scheme" in record
        assert ("scan" in record) == (code == 4)


def readme_cli_lines():
    """The commands of README's CLI block, each with the exit code its
    "# exit N" comment names (0 when it names none)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        expected = re.search(r"#\s*exit (\d)", line)
        argv = shlex.split(line, comments=True)
        assert argv[0] == "subdiv"
        yield argv[1:], int(expected.group(1)) if expected else 0


def test_readme_cli_block(tmp_path, monkeypatch, capsys):
    """README's CLI example runs, line by line, with the exit codes it shows."""
    monkeypatch.chdir(tmp_path)
    lines = list(readme_cli_lines())
    assert len(lines) >= 7
    assert [run(argv) for argv, _ in lines] == [code for _, code in lines]

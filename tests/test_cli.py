import argparse
import collections
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subdiv
from subdiv import catalog, cli, refine, schemes
from subdiv.cli import main
from subdiv.masks import coeff_norm, difference_mask

from conftest import assert_golden


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


def test_analyze_block_read_hides_no_unexpected_error(monkeypatch, capsys):
    """analyze reads its levels as one block and leaves a SubdivError of
    that read to the level that raises it, after the levels before it.  Any
    other error, such as a failed reconstruction's RuntimeError, is raised
    at once, though the reads level by level would not raise it."""
    derive = schemes.difference_rows

    def failing(rows):
        if len(rows) > 1:
            raise RuntimeError("difference-mask reconstruction failed")
        return derive(rows)

    monkeypatch.setattr(schemes, "difference_rows", failing)
    with pytest.raises(RuntimeError, match="reconstruction failed"):
        run(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--k-range", "1:8"])
    assert "level 1:" not in capsys.readouterr().out


def test_analyze_k_range_clamped(tmp_path, capsys):
    """analyze clamps --k-range to the scheme's domain, as compare and
    certify do: level 0 of a scheme that starts at level 1 is dropped."""
    out = tmp_path / "report.json"
    assert run(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--k-range", "0:16",
                "--out", str(out)]) == 0
    assert sorted(map(int, json.loads(out.read_text())["levels"])) == list(range(1, 17))
    listed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("level ")]
    assert listed == [f"level {k}" for k in range(1, 17)]
    # a negative start is clamped too
    assert run(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--k-range=-3:4",
                "--out", str(out)]) == 0
    assert sorted(map(int, json.loads(out.read_text())["levels"])) == list(range(1, 5))


def test_analyze_builds_each_late_level_once(monkeypatch, tmp_path, capsys):
    """A late window is read as one block, which the listing, the report's
    rules and the boundedness estimate all read from: each listed level's
    mask is built once, where reading level by level built each three
    times."""
    built = collections.Counter()
    build = schemes._LevelTable.build

    def counted(table, scheme, last):
        built.update(range(table.start + table.built, table.start + last + 1))
        return build(table, scheme, last)

    monkeypatch.setattr(schemes._LevelTable, "build", counted)
    out = tmp_path / "report.json"
    assert run(["analyze", "--scheme", "derham:gamma=2,alpha=1.5",
                "--k-range", "500000:500063", "--out", str(out)]) == 0
    assert {k: n for k, n in built.items() if k >= 500000} == dict.fromkeys(range(500000, 500064), 1)
    assert sorted(map(int, json.loads(out.read_text())["levels"])) == list(range(500000, 500064))


@pytest.mark.parametrize("command", [
    ["analyze", "--scheme", "derham:gamma=2,alpha=1.5"],
    ["compare", "--scheme", "derham:gamma=2,alpha=1.5", "--comparator", "derham_stationary:gamma=2"],
    ["certify", "--scheme", "derham:gamma=2,alpha=1.5", "--comparator", "derham_stationary:gamma=2"],
], ids=["analyze", "compare", "certify"])
def test_negative_k_range_start_in_either_form(tmp_path, capsys, command):
    """``--k-range -3:4`` reads as ``--k-range=-3:4``, which argparse alone
    would take for an unknown option and exit 2."""
    results = []
    for form in (["--k-range", "-3:40"], ["--k-range=-3:40"]):
        out = tmp_path / "out"
        code = run([*command, *form, "--out", str(out)])
        files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
        results.append((code, capsys.readouterr(), files))
        for p in tmp_path.iterdir():
            p.unlink()
    assert results[0] == results[1]
    assert results[0][0] == 0


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


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda cert: cert.pop("k_star"),
                 "certificate has no field 'k_star': it was written before certificates "
                 "were anchored at K + n - 1, so certify again", id="unanchored"),
    pytest.param(lambda cert: cert.update(k_star=1),
                 "certificate k_star = 1 is not K + n - 1 = 2", id="k_star-moved"),
])
def test_refine_refuses_unanchored_certificate(edit, message, tmp_path, capsys):
    """A certificate file without k_star, written when the bounds were
    C1 * mu_hat**k with C1 divided by mu_hat**(K + n - 1), or with a k_star
    other than K + n - 1, is refused on load (exit 2), never read in the
    other form."""
    scheme = "derham:gamma=2,alpha=1.5"
    cert_path = tmp_path / "cert.json"
    assert run(["certify", "--scheme", scheme, "--comparator", "derham_stationary:gamma=2",
                "--out", str(cert_path)]) == 0
    payload = json.loads(cert_path.read_text())
    edit(payload["certificate"])
    cert_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run(["refine", "--scheme", scheme, "--certificate", str(cert_path)]) == 2
    assert capsys.readouterr().err == f"error loading certificate: {message}\n"


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


FIGURE1_DIGESTS = {
    "fig1_alpha_+2.5.csv": "aa62b0bab61647f7d7460d8dd16d0985482216717273755fcf6e0f6c7dd76ce5",
    "fig1_alpha_+1.5.csv": "bdd3836f1884c4a515ca404891fd1f58e5d8118249e6f66304b095083981a1f5",
    "fig1_alpha_+0.5.csv": "b6e3832eed8f81e5ff19a7cc1fa987d98b9755f0b2cdad51c2d50cda6dbfeadd",
    "fig1_alpha_-0.5.csv": "93ad228d24b838d0b25536ce1d8a755e1a562acf52ffe0c5505335c834226c77",
    "fig1_alpha_-1.5.csv": "564c94b916a33a03c7dfd59e4e4c13cb468ed9b66f249d4048f7c625163d96a6",
}


def test_figure1_golden_digests(tmp_path):
    prefix = tmp_path / "fig1"
    assert run(["figure", "1", "--levels", "12", "--out", str(prefix)]) == 0
    assert {p.name: sha256(p) for p in tmp_path.glob("fig1_alpha_*.csv")} == FIGURE1_DIGESTS


def test_figure1_golden_digests_across_blocks(tmp_path, monkeypatch):
    """With blocks of 4 rows, the five files are written in lockstep over
    thousands of blocks (level 12 fits one block of the default size), and
    refined in steps of 2 values: the same bytes."""
    monkeypatch.setattr(refine, "_BLOCK", 4)
    prefix = tmp_path / "fig1"
    assert run(["figure", "1", "--levels", "12", "--out", str(prefix)]) == 0
    assert {p.name: sha256(p) for p in tmp_path.glob("fig1_alpha_*.csv")} == FIGURE1_DIGESTS


def test_figure1_failure_writes_no_file(tmp_path, capsys):
    """At gamma 1 the ratio of alpha -0.5 is negative: all five schemes are
    refined before the first file is opened, so no file is left."""
    assert run(["figure", "1", "--gamma", "1.0", "--levels", "6",
                "--out", str(tmp_path / "fig1")]) == 3
    assert "InvalidParameter" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


NAN = float("nan")
# values whose reprs are easy to get wrong: signed zeros and NaNs, whose
# bit patterns differ while they compare equal or unequal, a NaN payload,
# infinities, subnormals, and the edges of repr's switch to exponents
TRICKY_FLOATS = [
    0.0, -0.0, NAN, -NAN, np.uint64(0x7FF8000000000001).view(np.float64).item(),
    math.inf, -math.inf, 5e-324, -5e-324, 2.225073858507201e-308,
    1e-4, 9.999999999999999e-05, 1.0000000000000002e-04, -1e-4,
    1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16, 0.1, 1.0, -2.5,
]
any_floats = st.sampled_from(TRICKY_FLOATS) | st.floats()
any_ints = st.integers(-(2**63), 2**63 - 1)


@st.composite
def csv_column(draw, n: int):
    """A column of ``n`` fields, of one of the kinds the commands write."""
    kind = draw(st.sampled_from(["floats", "ints", "constant", "list"]))
    if kind == "constant":
        return np.full(n, draw(any_floats | any_ints))
    if kind == "list":
        return draw(st.lists(st.none() | any_floats | any_ints, min_size=n, max_size=n))
    # a small pool, so that values repeat
    pool = draw(st.lists(any_floats if kind == "floats" else any_ints, min_size=1, max_size=5))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                    dtype=np.float64 if kind == "floats" else np.int64)


@st.composite
def csv_tables(draw):
    # csv.writer quotes a row of one empty field, which no command writes
    width = draw(st.integers(2, 4))
    blocks = [tuple(draw(csv_column(n)) for _ in range(width))
              for n in draw(st.lists(st.integers(0, 13), max_size=4))]
    return [f"c{i}" for i in range(width)], blocks


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(csv_tables())
# both zeros and both NaNs within one run of 4 rows
@example((["x", "y"], [(np.array([0.0, -0.0, NAN, -NAN, -0.0, 0.0]),
                        np.array([-NAN, 1e16, -0.0, 0.0, 0.0, 1e16]))]))
def test_write_csv_is_csv_writer(table):
    """_write_csv, with blocks of 4 rows so that columns split, writes the
    bytes csv.writer gives for the same fields: repr of each number, "" for
    None, whatever the bit pattern, repeated or not."""
    header, blocks = table
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\r\n")
    writer.writerow(header)
    for columns in blocks:
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                               for c in columns)))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(refine, "_BLOCK", 4):
        path = os.path.join(tmp, "out.csv")
        cli._write_csv(path, header, blocks)
        with open(path, "rb") as fh:
            assert fh.read() == want.getvalue().encode()


@st.composite
def grid_windows(draw):
    """A window of a dyadic grid: its first index, level and length.  The
    windows cross 0, lie near |x| = 1e-4 (where repr switches to an
    exponent), near |J| = 2**52, or anywhere; levels past 18 take repr."""
    level = draw(st.integers(0, 24))
    n = draw(st.integers(1, 13))
    near = draw(st.sampled_from([0, -(-(2**level) // 10**4), 2**52, 2**40, None]))
    if near is None:
        start = draw(st.integers(-(2**53), 2**53 - n))
    else:
        start = draw(st.sampled_from([1, -1])) * near + draw(st.integers(-n - 2, 2))
    return start, level, n


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(grid_windows())
# ties that round half to even, down (0.5 + 2**-17) and up; the first is
# also exactly half an ulp from its shortest digits
@example((2**16 + 1, 17, 1))
@example((7 * 2**16 + 3, 17, 1))
# 0.0, -2**-17 and 2**-17 in exponent form, and integer points
@example((-1, 17, 3))
@example((-3 * 2**5, 5, 2 * 2**5 + 1))
@example((-5, 0, 11))
def test_grid_fields_are_repr(window):
    """A grid column's field is repr(J * 2**-level) for every index J, in
    and out of the integer formatter's domain, with blocks of 4 rows."""
    start, level, n = window
    grid = cli._Grid(start, level, n)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(refine, "_BLOCK", 4):
        path = os.path.join(tmp, "out.csv")
        cli._write_csv(path, ["x", "i"], [(grid, np.arange(n))])
        with open(path, "rb") as fh:
            rows = fh.read().decode().split("\r\n")
    assert rows[0] == "x,i" and rows[-1] == ""
    assert rows[1:-1] == [f"{math.ldexp(start + i, -level)!r},{i}" for i in range(n)]


def test_dyadic_cells_are_repr_in_bulk():
    """The integer formatter gives repr for 2000 random indices of each
    magnitude at every level of its domain."""
    rng = np.random.default_rng(12)
    for level in range(19):
        for bits in (4, 12, 24, 40, 52):
            J = rng.integers(-(2**bits) + 1, 2**bits, 2000)
            J = J[np.abs(J) >= -(-(2**level) // 10**4)]
            if len(J):
                cells = cli._dyadic_cells(J, level)
                got = [bytes(c[c != 0]).decode() for c in cells]
                assert got == [repr(math.ldexp(j, -level)) for j in J.tolist()], (level, bits)


def test_figure2(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run(["figure", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,x,value"
    levels = {line.split(",")[0] for line in lines[1:]}
    assert levels == {"9", "13", "17"}
    assert sha256(out) == "a5c850a87596eccc160745c182cb6bb3f6994a290be6d6e42ec3f10e31b0c3f7"
    assert "do not decay" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code, pins", [
    pytest.param(
        ["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--k-range", "1:12",
         "--out", "report.json", "--verbose"], 0,
        {"report.json": "analyze-verbose.report.json"},
        id="analyze-verbose"),
    pytest.param(
        ["compare", "--scheme", "derham:gamma=2,alpha=1.5",
         "--comparator", "derham_stationary:gamma=2", "--k-range", "1:256", "--out", "cmp"], 0,
        {"cmp.json": "compare.cmp.json",
         "cmp.csv": "dbeb027dbbf4d79b5ffa066a58a03ee956e673698a10edfd4c8389a14770cbf3"},
        id="compare"),
    pytest.param(
        ["certify", "--scheme", "derham:gamma=1.5,alpha=2.5",
         "--comparator", "derham_stationary:gamma=1.5", "--out", "cert.json"], 0,
        {"cert.json": "certify.cert.json"},
        id="certify"),
    pytest.param(
        ["certify", "--scheme", "perturbed_chaikin", "--comparator", "chaikin",
         "--out", "fail.json"], 3,
        {"fail.json": "certify-exit3.fail.json"},
        id="certify-exit3"),
])
def test_json_golden_digests(argv, code, pins, tmp_path, monkeypatch, capsys):
    """Each file the command writes: a JSON file equals its golden file under
    tests/golden/ byte for byte, and a CSV file keeps its SHA-256."""
    monkeypatch.chdir(tmp_path)
    assert run(argv) == code
    assert {p.name for p in tmp_path.iterdir()} == pins.keys()
    for name, pin in pins.items():
        if name.endswith(".json"):
            assert_golden((tmp_path / name).read_text(encoding="utf-8"), pin)
        else:
            assert sha256(tmp_path / name) == pin


@pytest.mark.parametrize("argv", [
    pytest.param(["refine", "--scheme", "chaikin", "--tol", "1e-9"], id="refine-tol"),
    pytest.param(["refine", "--scheme", "chaikin", "--k-range", "0:8"], id="refine-k-range"),
    pytest.param(["compare", "--scheme", "chaikin", "--comparator", "chaikin", "--verbose"],
                 id="compare-verbose"),
    pytest.param(["figure", "2", "--verbose"], id="figure2-verbose"),
    pytest.param(["analyze", "--scheme", "chaikin", "--format", "json"], id="analyze-format"),
    pytest.param(["certify", "--scheme", "chaikin", "--comparator", "chaikin", "--window", "64"],
                 id="certify-window"),
    pytest.param(["certify", "--scheme", "chaikin", "--comparator", "chaikin", "--eta", "0.9"],
                 id="certify-eta"),
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


@pytest.mark.parametrize("argv, refusal", [
    pytest.param(["analyze", "--scheme", "chaikin", "--verbose", "--n-max", "60"],
                 "memory budget", id="analyze-verbose"),
    pytest.param(["certify", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2", "--n-max", "60"],
                 "memory budget", id="certify"),
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--K-max", str(10**9)],
                 "memory budget", id="analyze-K-max"),
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--window", str(10**9)],
                 "memory budget", id="analyze-window"),
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--k-range", f"1:{10**9}"], "memory budget", id="analyze-k-range"),
    pytest.param(["compare", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2", "--k-range", f"1:{10**9}"],
                 "level cap", id="compare-k-range"),
    pytest.param(["certify", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2", "--k-range", f"1:{10**9}"],
                 "level cap", id="certify-k-range"),
    # a short window that starts late: the C1 prefix reads every level from k0
    pytest.param(["certify", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2", "--k-range", "1400000:1400063"],
                 "level cap", id="certify-k-range-late"),
])
def test_n_max_budget_refusal(argv, refusal, capsys):
    """An n-fold product stencil holds about len(q) * 2**n coefficients, so
    an exponential --n-max exits 3 before any product is composed; so does
    a --K-max or --window whose scan cells would not fit, or a --k-range
    whose report would not fit or whose levels pass the level cap, before
    the first level is read."""
    tracemalloc.start()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 2**20
    assert refusal in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["compare", "--scheme", "derham:gamma=2,alpha=1.5",
                  "--comparator", "derham_stationary:gamma=2"], id="compare"),
    # differences that do not round away, so the decay fit takes the levels
    pytest.param(["compare", "--scheme", "derham:gamma=2,alpha=1e25",
                  "--comparator", "derham_stationary:gamma=2"], id="compare-fit"),
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5"], id="analyze"),
])
@pytest.mark.parametrize("k_range", [
    "9223372036854775800:9223372036854775863",  # across 2**63
    "18446744073709551500:18446744073709551615",  # up to 2**64 - 1
    "18446744073709551600:18446744073709551663",  # across 2**64
])
def test_levels_past_int64_exit0(argv, k_range, tmp_path, capsys):
    """derham builds the levels that int64 holds as array operations and
    the rest one mask_fn call a level, so a window at or past 2**63 or
    2**64 exits 0, with each level's mask bit for bit mask_fn's.  The logs
    of such levels round to one float, so compare fits no decay."""
    out = tmp_path / "out"
    assert run([*argv, "--k-range", k_range, "--out", str(out)]) == 0
    lo, hi = map(int, k_range.split(":"))
    scheme = catalog.parse_scheme_arg(argv[2])
    if argv[0] == "compare":
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["k"] == list(range(lo, hi + 1))
        stationary = catalog.derham_stationary(2.0).mask_at(0)
        assert report["diff"] == [coeff_norm(scheme.mask_fn(k) - stationary)
                                  for k in range(lo, hi + 1)]
        assert report["decay_fit"] is None
    else:
        levels = json.loads(out.read_text())["levels"]
        assert [levels[str(k)]["difference_mask"] for k in range(lo, hi + 1)] == [
            difference_mask(scheme.mask_fn(k)).to_dict() for k in range(lo, hi + 1)]


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


@pytest.mark.parametrize("command", ["analyze", "certify", "refine", "compare"])
def test_scheme_locality_and_start_must_be_integers(command, tmp_path, capsys):
    """A scheme file's N must be a JSON integer of at least 0 and its k0 a
    JSON integer, a bool being neither; anything else is refused on load
    with exit 2, where a negative N ended in a traceback (exit 1) and an N
    of 2.5 was read as 2."""
    hat = {"base": -1, "coeffs": [0.5, 1.0, 0.5]}
    path = tmp_path / "scheme.json"
    comparator = ["--comparator", "linear_bspline"] if command in ("certify", "compare") else []
    path.write_text(json.dumps({"kind": "stationary", "mask": hat, "N": 1, "k0": 0}))
    assert run([command, "--scheme", str(path), *comparator]) == 0
    capsys.readouterr()
    for scheme in [
        {"kind": "stationary", "mask": hat, "N": -1},
        {"kind": "table", "masks": [hat] * 12, "N": -2},
        *({"kind": "stationary", "mask": hat, "N": bad} for bad in (2.5, 1.0, True, "1")),
        *({"kind": "table", "masks": [hat] * 12, "k0": bad} for bad in (0.5, 0.0, False, None, "0")),
    ]:
        path.write_text(json.dumps(scheme))
        assert run([command, "--scheme", str(path), *comparator]) == 2, scheme
        assert "must be an integer" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--verbose"],
                 id="analyze-verbose"),
    pytest.param(["certify", "--scheme", "chaikin", "--comparator", "chaikin"], id="certify"),
    pytest.param(["analyze", "--scheme", "chaikin"], id="analyze"),
])
def test_closed_stdout_exit3(argv):
    """A stdout whose reader has gone exits 3 with one stderr line, not a
    traceback from writing the failure record to the same closed pipe."""
    src = str(Path(subdiv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-m", "subdiv.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 3
    assert err.splitlines() == ["error: BrokenPipeError: [Errno 32] Broken pipe"]


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
# a mask of 16 taps, longer than the 3 values of --halfwidth 1
LONG_SCHEME = {"kind": "stationary", "mask": {"base": -8, "coeffs": [0.0625] * 16}, "N": 8}


def one_record(text: str) -> dict:
    """The one JSON record in a command's output, after any plain lines."""
    lines = text.splitlines(keepends=True)
    start = lines.index("{\n")
    assert "{\n" not in lines[:start]
    return json.loads("".join(lines[start:]))  # refuses trailing text


@pytest.mark.parametrize("argv, code, verdict, path, kind", [
    # a range that holds no level once clamped to the scheme's domain
    pytest.param(["analyze", "--scheme", "derham:gamma=2,alpha=1.5", "--k-range", "5:2"],
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
    pytest.param(["refine", "--scheme", "long.json", "--halfwidth", "1"],
                 3, "ok", None, "EmptyOutput", id="refine-empty-output-halfwidth"),
    pytest.param(["refine", "--scheme", "chaikin", "--initial", "ones", "--halfwidth", "-1"],
                 3, "ok", None, "InvalidParameter", id="refine-ones-halfwidth"),
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
    (tmp_path / "long.json").write_text(json.dumps(LONG_SCHEME))
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
        # the hint names the option that set the window
        *([f"hint: enlarge {'the --initial window' if '--initial' in argv else '--halfwidth'}"]
          if kind == "EmptyOutput" else []),
        # every product of the box rule's difference rule has norm 1
        *(["closest miss: mu = 1.0 at n = 1, K = 0"] if kind == "ContractionNotFound" else []),
    ]
    assert not (tmp_path / "missing").exists()
    if argv[0] == "analyze":
        assert record["contraction"] is None and "scheme" in record
        assert ("scan" in record) == (code == 4)


FOUR_POINT_SCHEME = {"kind": "stationary", "N": 3, "mask": {
    "base": -3, "coeffs": [-0.27, 0.0, 0.77, 1.0, 0.77, 0.0, -0.27]}}
DERHAM_PAIR = ["--scheme", "derham:gamma=2,alpha=1.5", "--comparator", "derham_stationary:gamma=2"]


@pytest.mark.parametrize("argv, code, line", [
    pytest.param([*DERHAM_PAIR, "--k-range", "2500:2563"], 0,
                 "K=2500 mu_hat=0.75 C=29.090909090909093", id="derham-2500"),
    pytest.param([*DERHAM_PAIR, "--k-range", "3000:3063"], 0,
                 "K=3000 mu_hat=0.75 C=29.090909090909093", id="derham-3000"),
    pytest.param([*DERHAM_PAIR, "--k-range", "4000:4063"], 0,
                 "K=4000 mu_hat=0.75 C=29.090909090909093", id="derham-4000"),
    pytest.param(["--scheme", "chaikin", "--comparator", "chaikin", "--k-range", "2600:2663"], 0,
                 "K=2600 mu_hat=0.75 C=28.0", id="chaikin-2600"),
    pytest.param(["--scheme", "four.json", "--comparator", "four.json",
                  "--mu", "0.9999999999999999"], 3, "rounds to 1.0", id="four-point-mu"),
])
def test_certify_refuses_non_finite_constants(argv, code, line, tmp_path, monkeypatch, capsys):
    """No certificate holds a non-finite constant.  A late window, where
    mu_hat**(K + n - 1) underflows, certifies with the constants of its
    levels alone, since the bounds are anchored at k_star = K + n - 1.  A
    mu whose rate mu**(1/n) rounds to 1 exits 3 with one failure record.
    No Infinity in the file, no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "four.json").write_text(json.dumps(FOUR_POINT_SCHEME))
    assert run(["certify", *argv, "--out", "cert.json"]) == code
    text = (tmp_path / "cert.json").read_text()
    assert "Infinity" not in text
    record = one_record(text)
    out, err = capsys.readouterr()
    if code == 0:
        assert record["certified"] is True and line in out and not err
        return
    assert record["certified"] is False and record["reason"]["type"] == "InvalidParameter"
    assert line in record["reason"]["message"]
    assert err.splitlines() == [f"error: InvalidParameter: {record['reason']['message']}"]


def test_certify_late_window_keeps_bits(tmp_path):
    """A late window certifies with the constants of an early one: K moves
    with the window, and C1, Gamma and C do not."""
    assert run(["certify", *DERHAM_PAIR, "--k-range", "300:363",
                "--out", str(tmp_path / "cert.json")]) == 0
    assert_golden((tmp_path / "cert.json").read_text(encoding="utf-8"), "late-window.cert.json")


# Every option each subcommand takes, by dest.  An added or removed knob
# fails test_cli_surface until this map is updated on purpose.
CLI_OPTIONS = {
    "analyze": {"scheme", "k_range", "out", "n_max", "K_max", "window", "verbose"},
    "compare": {"scheme", "comparator", "k_range", "out"},
    "certify": {"scheme", "comparator", "k_range", "out", "n_max", "mu"},
    "refine": {"scheme", "out", "levels", "initial", "halfwidth", "certificate"},
    "figure 1": {"gamma", "levels", "halfwidth", "out"},
    "figure 2": {"halfwidth", "out"},
}


def parser_options(parser, words=()):
    """Yield (command words, option dests) for every parser under
    ``parser`` that takes options of its own or has no subcommands."""
    own = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if own or not subs:
        yield " ".join(words), own
    for action in subs:
        for name, sub in action.choices.items():
            yield from parser_options(sub, (*words, name))


def test_cli_surface():
    """The CLI takes exactly the 29 options of CLI_OPTIONS."""
    options = dict(parser_options(cli.build_parser()))
    assert options == CLI_OPTIONS
    assert sum(map(len, options.values())) == 29


def readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block under README's ``heading``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return text.split(heading, 1)[1].split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_cli_lines():
    """The commands of README's CLI block, each with the exit code its
    "# exit N" comment names (0 when it names none)."""
    block = readme_block("## CLI", "sh")
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


def option_strings(parser):
    """Every option string of ``parser`` and its subcommands."""
    for action in parser._actions:
        yield from action.option_strings
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from option_strings(sub)


def test_readme_options_match_parser():
    """README names every option the CLI takes, and no other."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text)) - {"--no-build-isolation"}
    taken = {o for o in option_strings(cli.build_parser()) if o.startswith("--")} - {"--help"}
    assert named == taken


def test_readme_library_example(capsys):
    """README's library example runs as written."""
    exec(compile(readme_block("## Library example", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 1

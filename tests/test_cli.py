import hashlib
import json
import subprocess
import sys

import pytest

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
    proc = subprocess.run(
        [sys.executable, "-m", "subdiv.cli", "analyze", "--scheme", "chaikin"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "mu=0.5" in proc.stdout


def test_thread_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SUBDIV_NUM_THREADS", "4")
    assert run(["analyze", "--scheme", "chaikin"]) == 0
    monkeypatch.setenv("SUBDIV_NUM_THREADS", "zero")
    assert run(["analyze", "--scheme", "chaikin"]) == 3

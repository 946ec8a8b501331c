"""Tests for the command-line interface: outputs, files, exit codes."""

import numpy as np
import pytest

from qopdist.channels import QuantumOperation
from qopdist.cli import main
from qopdist.matrixio import load_kraus_set, load_state, save_kraus_set, save_state
from qopdist.maximizers import MaximizerMode, certify_maximizer
from qopdist.metrics import trace_distance
from qopdist.suites import parse_report


@pytest.fixture
def files(tmp_path):
    save_state(tmp_path / "e0.json", np.diag([1.0, 0.0]).astype(complex))
    save_state(tmp_path / "e1.json", np.diag([0.0, 1.0]).astype(complex))
    save_state(tmp_path / "mix.json", np.diag([0.75, 0.25]).astype(complex))
    save_state(tmp_path / "dim3.json", np.diag([1.0, 0.0, 0.0]).astype(complex))
    eye4 = np.eye(4, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    save_kraus_set(
        tmp_path / "op.json",
        QuantumOperation([np.outer(eye2[:, i], eye4[:, i]) for i in range(2)]),
    )
    q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)) + 0j)
    save_kraus_set(tmp_path / "tp.json", QuantumOperation([q]))
    return tmp_path


def test_dist_trace(files, capsys):
    assert main(["dist", str(files / "e0.json"), str(files / "e1.json")]) == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_dist_metrics(files, capsys):
    main(["dist", str(files / "e0.json"), str(files / "mix.json"), "--metric", "trace"])
    assert capsys.readouterr().out.strip() == "0.250000000000"
    main(["dist", str(files / "e0.json"), str(files / "mix.json"), "--metric", "sine"])
    assert capsys.readouterr().out.strip() == "0.500000000000"
    main(["dist", str(files / "e0.json"), str(files / "e0.json"), "--metric", "fidelity"])
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_dist_witness_gap(files, capsys):
    """Two invocations give sine minus trace = 0.25 for the witness pair."""
    main(["dist", str(files / "e0.json"), str(files / "mix.json"), "--metric", "sine"])
    sine = float(capsys.readouterr().out)
    main(["dist", str(files / "e0.json"), str(files / "mix.json"), "--metric", "trace"])
    trace = float(capsys.readouterr().out)
    assert abs((sine - trace) - 0.25) < 1e-9


def test_dist_missing_file_exit_2(files, capsys):
    assert main(["dist", str(files / "e0.json"), str(files / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_dist_dim_mismatch_exit_3(files):
    assert main(["dist", str(files / "e0.json"), str(files / "dim3.json")]) == 3


def test_dist_dimension_beyond_float_range_exit_2(files, capsys):
    """A dimension of 1e400 is rejected as a document error, not an
    OverflowError traceback."""
    (files / "huge.json").write_text('{"dim_rows": 1e400, "dim_cols": 1, "entries": [[1, 0]]}')
    assert main(["dist", str(files / "huge.json"), str(files / "e0.json")]) == 2
    assert "dim_rows must be an integer, got inf" in capsys.readouterr().err


def test_maximize_zero_output_dimension_exit_2(files, capsys):
    assert main(["maximize", str(files / "e0.json"), str(files / "e1.json"), "0", str(files / "x.json")]) == 2
    assert "error: dim_out must be >= 1, got 0" in capsys.readouterr().err


def test_maximize_round_trip(files, capsys):
    out = files / "built.json"
    code = main(
        ["maximize", str(files / "e0.json"), str(files / "mix.json"), "2", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "e_distance 0.250000000000" in text
    assert "trace_distance 0.250000000000" in text
    op = load_kraus_set(out)
    rho = load_state(files / "e0.json")
    sig = load_state(files / "mix.json")
    assert certify_maximizer(op, rho, sig).mode == MaximizerMode.ON_Q


def test_maximize_on_r(files, capsys):
    out = files / "built_r.json"
    code = main(
        ["maximize", str(files / "e0.json"), str(files / "mix.json"), "1", str(out), "--mode", "on-r"]
    )
    assert code == 0
    assert "certificate on-r" in capsys.readouterr().out


def test_maximize_identical_exit_4(files):
    assert main(["maximize", str(files / "e0.json"), str(files / "e0.json"), "1", str(files / "x.json")]) == 4


def test_maximize_tol_is_degenerate_cut(files, monkeypatch):
    """--tol also decides when two states count as coinciding."""
    monkeypatch.delenv("QOPDIST_DEFAULT_TOL", raising=False)
    save_state(files / "a.json", np.diag([0.5, 0.5]).astype(complex))
    save_state(files / "b.json", np.diag([0.5 + 5e-7, 0.5 - 5e-7]).astype(complex))
    assert abs(trace_distance(load_state(files / "a.json"), load_state(files / "b.json")) - 5e-7) < 1e-12
    args = ["maximize", str(files / "a.json"), str(files / "b.json"), "2"]
    assert main(args + [str(files / "cut.json"), "--tol", "1e-5"]) == 4
    assert not (files / "cut.json").exists()
    assert main(args + [str(files / "kept.json")]) == 0
    assert (files / "kept.json").exists()


def test_maximize_tol_reaches_certificate(files, monkeypatch):
    """A --tol below the default admits a closer pair to the certificate
    as well as to the construction."""
    monkeypatch.delenv("QOPDIST_DEFAULT_TOL", raising=False)
    save_state(files / "a.json", np.diag([0.5 - 5e-11, 0.5 + 5e-11]).astype(complex))
    save_state(files / "b.json", np.diag([0.5, 0.5]).astype(complex))
    args = ["maximize", str(files / "a.json"), str(files / "b.json"), "2", str(files / "op-out.json")]
    assert main(args) == 4
    assert main(args + ["--tol", "1e-12"]) == 0
    assert (files / "op-out.json").exists()


def test_pairs(files, capsys):
    out_dir = files / "pairs"
    code = main(["pairs", str(files / "op.json"), "0.5", "3", str(out_dir), "--seed", "5"])
    assert code == 0
    assert "written 3 pairs" in capsys.readouterr().out
    mats = []
    for i in range(3):
        rho = load_state(out_dir / f"pair-{i:02d}-rho.json")
        sig = load_state(out_dir / f"pair-{i:02d}-sigma.json")
        assert abs(trace_distance(rho, sig) - 0.5) < 1e-9
        mats.append(rho.mat)
    # pairs are distinct
    assert np.max(np.abs(mats[0] - mats[1])) > 1e-6
    assert np.max(np.abs(mats[1] - mats[2])) > 1e-6


def test_pairs_target_out_of_range_exit_2(files):
    assert main(["pairs", str(files / "op.json"), "1.5", "1", str(files / "p2")]) == 2


def test_pairs_trace_preserving_exit_5(files, capsys):
    assert main(["pairs", str(files / "tp.json"), "0.5", "1", str(files / "p3")]) == 5
    assert "T spectrum" in capsys.readouterr().err


def test_pairs_zero_count_exit_2(files, capsys):
    out_dir = files / "p5"
    assert main(["pairs", str(files / "op.json"), "0.5", "0", str(out_dir)]) == 2
    assert "error: count must be >= 1, got 0" in capsys.readouterr().err
    assert not out_dir.exists()


def test_pairs_negative_seed_exit_2(files, capsys):
    out_dir = files / "p4"
    assert main(["pairs", str(files / "op.json"), "0.5", "1", str(out_dir), "--seed", "-1"]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_clone_orthogonal(files, capsys):
    assert main(["clone", str(files / "e0.json"), str(files / "e1.json")]) == 0
    out = capsys.readouterr().out.strip()
    assert '"Omega": 0.000000000000' in out
    assert '"factor": 1.000000000000' in out


def test_clone_mixed_exit_6(files):
    assert main(["clone", str(files / "mix.json"), str(files / "e1.json")]) == 6


def test_verify_small(files, capsys):
    report = files / "r.jsonl"
    code = main(["verify", "thm4", "--seed", "7", "--cases", "400", "--report", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "thm4" in out and "OK" in out
    parsed = parse_report(report)
    assert parsed[0].suite_name == "thm4"
    assert parsed[0].n_failures == 0


def test_verify_reports_identical(files):
    r1, r2 = files / "r1.jsonl", files / "r2.jsonl"
    assert main(["verify", "cloning", "--seed", "11", "--cases", "30", "--report", str(r1)]) == 0
    assert main(["verify", "cloning", "--seed", "11", "--cases", "30", "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_verify_negative_seed_exit_2(files, capsys):
    report = files / "r.jsonl"
    assert main(["verify", "lemma1", "--seed", "-1", "--cases", "1", "--report", str(report)]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize(
    "suite, cases", [("thm1", "0"), ("thm3", "0"), ("cloning", "-3"), ("all", "0")]
)
def test_verify_too_few_cases_exit_2(capsys, suite, cases):
    assert main(["verify", suite, "--cases", cases]) == 2
    assert f"error: n_cases must be >= 1, got {cases}" in capsys.readouterr().err


UNWRITABLE_OUTPUTS = {
    "maximize": lambda d: ["maximize", str(d / "e0.json"), str(d / "e1.json"), "2", str(d / "no" / "k.json")],
    "verify-report": lambda d: ["verify", "lemma2", "--cases", "1", "--report", str(d / "no" / "r.jsonl")],
    "pairs-out-dir-is-a-file": lambda d: ["pairs", str(d / "op.json"), "0.5", "1", str(d / "e0.json")],
}


@pytest.mark.parametrize("name", UNWRITABLE_OUTPUTS)
def test_unwritable_output_exit_2(files, capsys, name):
    assert main(UNWRITABLE_OUTPUTS[name](files)) == 2
    assert capsys.readouterr().err.startswith("error: cannot ")


def test_verify_unknown_suite_exit_2(files):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm99"])
    assert exc.value.code == 2


def test_no_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["abc", "nan", "-1"])
def test_bad_default_tol_env_exit_2(monkeypatch, capsys, value):
    monkeypatch.setenv("QOPDIST_DEFAULT_TOL", value)
    assert main(["verify", "thm1", "--cases", "1"]) == 2
    assert "QOPDIST_DEFAULT_TOL" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["verify", "maximize", "pairs"])
def test_bad_tol_option_exit_2(files, capsys, command, tol):
    argv = {
        "verify": ["verify", "thm3", "--cases", "1"],
        "maximize": ["maximize", str(files / "e0.json"), str(files / "e1.json"), "1", str(files / "m.json")],
        "pairs": ["pairs", str(files / "op.json"), "0.5", "1", str(files / "p5")],
    }[command]
    assert main(argv + ["--tol", tol]) == 2
    assert "error: tolerance must be a finite number >= 0" in capsys.readouterr().err
    assert not (files / "m.json").exists() and not (files / "p5").exists()

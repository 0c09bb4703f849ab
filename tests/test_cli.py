"""Front-end reports: exit codes, key layout, determinism, error messages."""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import REPO, cli_env
from rwsim import circuit as ir, pathsum, statevector
from rwsim.applications import collision_success_probability
from rwsim.circuit import (
    CircuitSyntaxError,
    CircuitValidationError,
    DepthLimitError,
    GateSetError,
    InputError,
    InvalidPostselectionError,
    PostselectThresholdError,
    QubitBudgetError,
    RewindConsistencyError,
    UnknownSnapshotError,
    outcome_distribution,
    parse_circuit,
    strong_probability,
)
from rwsim.cli import _collision_family, main
from rwsim.rng import stream_seed

BELL = str(REPO / "circuits/bell.qc")
RETRY = str(REPO / "circuits/rewind_retry.qc")
TGATE = str(REPO / "circuits/t-gate.qc")
POSTSELECT = str(REPO / "circuits/postselect_demo.qc")
SD_C0 = str(REPO / "demos/sd_c0.txt")
SD_C1 = str(REPO / "demos/sd_c1.txt")
PATTERN = "demos/identity_2x5.pattern"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields(out: str) -> dict[str, str]:
    # split on the last '=': assertion keys contain comparison operators
    result = {}
    for line in out.splitlines():
        key, _, value = line.rpartition("=")
        result[key] = value
    return result


def without_duration(out: str) -> str:
    return "\n".join(l for l in out.splitlines() if not l.startswith("duration_s="))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_pathsum_bell(capsys):
    code, out, err = run(capsys, ["simulate", BELL, "--backend", "pathsum"])
    assert code == 0 and err == ""
    report = fields(out)
    assert abs(float(report["p_accept"]) - 0.5) < 1e-9
    assert abs(float(report["p.m0:0,m1:0"]) - 0.5) < 1e-9
    assert abs(float(report["p.m0:1,m1:1"]) - 0.5) < 1e-9
    assert "p.m0:0,m1:1" not in report


def test_simulate_pathsum_postselection(capsys):
    code, out, _ = run(capsys, ["simulate", POSTSELECT, "--backend", "pathsum"])
    assert code == 0
    assert abs(float(fields(out)["p_accept"]) - 1.0) < 1e-9


def test_simulate_sampling_report_layout(capsys):
    code, out, _ = run(capsys, ["simulate", BELL, "--trials", "40", "--seed", "3"])
    assert code == 0
    report = fields(out)
    assert report["backend"] == "sv" and report["qubits"] == "2"
    trials = [k for k in report if k.startswith("trial.")]
    assert len(trials) == 40
    freq_keys = [k for k in report if k.startswith("freq.")]
    assert freq_keys and abs(sum(float(report[k]) for k in freq_keys) - 1.0) < 1e-9
    # the pair never disagrees
    assert not any("m0:0,m1:1" in k or "m0:1,m1:0" in k for k in report)
    assert 0.0 <= float(report["accept_freq"]) <= 1.0


def test_simulate_stab_matches_retry_chain(capsys):
    code, out, _ = run(
        capsys, ["simulate", RETRY, "--backend", "stab", "--trials", "400"]
    )
    assert code == 0
    report = fields(out)
    assert abs(float(report["accept_freq"]) - 0.125) < 0.07


def test_simulate_jobs_do_not_change_the_report(capsys):
    base = run(capsys, ["simulate", BELL, "--trials", "30", "--seed", "7"])
    split = run(
        capsys, ["simulate", BELL, "--trials", "30", "--seed", "7", "--jobs", "3"]
    )
    assert base[0] == split[0] == 0
    assert without_duration(base[1]) == without_duration(split[1])


@pytest.mark.parametrize(
    "argv",
    [
        ["--backend", "sv", "--trials", "5", "--jobs", "1"],
        ["--backend", "stab", "--trials", "5", "--jobs", "1"],
        ["--backend", "pathsum"],
    ],
    ids=["sv", "stab", "pathsum"],
)
def test_simulate_parses_its_circuit_once(monkeypatch, capsys, argv):
    calls = {"parse": 0, "validate": 0, "check_runs": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr("rwsim.cli.parse_circuit", counting("parse", parse_circuit))
    monkeypatch.setattr(ir, "validate", counting("validate", ir.validate))
    monkeypatch.setattr(ir, "_check_runs", counting("check_runs", ir._check_runs))
    circuit = BELL if "pathsum" in argv else RETRY
    assert run(capsys, ["simulate", circuit, *argv])[0] == 0
    assert calls == {"parse": 1, "validate": 1, "check_runs": 1}


@pytest.mark.parametrize(
    "backend, source, message",
    [
        ("stab", Path(TGATE).read_text(), "line 4: backend stab cannot run gate rz"),
        # a gate is refused even on a branch no run takes
        ("stab", "qubits 1\nmeasure 0 -> m\ngate rz 0.5 0 if m == 1\n",
         "line 3: backend stab cannot run gate rz"),
    ],
    ids=["stab-rz", "stab-conditional-rz"],
)
def test_simulate_backend_refusals_name_the_file_and_line(
    tmp_path, capsys, backend, source, message
):
    path = tmp_path / "refused.qc"
    path.write_text(source)
    code, out, err = run(capsys, ["simulate", str(path), "--backend", backend])
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("backend", ["sv", "stab", "pathsum"])
def test_simulate_a_rewind_to_a_snapshot_never_taken_exits_1(tmp_path, capsys, backend):
    path = tmp_path / "never.qc"
    # m is always 0, so the snapshot on line 3 is never taken
    path.write_text("qubits 1\nmeasure 0 -> m\nsnapshot s if m == 1\nrewind s\naccept 0\n")
    code, out, err = run(capsys, ["simulate", str(path), "--backend", backend])
    assert (code, out) == (1, "")
    assert err == f"error: UnknownSnapshotError: {path}: line 4: no snapshot 's' on this branch\n"


def test_simulate_pathsum_runs_snapshot_and_rewind(capsys):
    # the retry circuit that the path sum once refused at its snapshot
    code, out, err = run(capsys, ["simulate", RETRY, "--backend", "pathsum"])
    assert (code, err) == (0, "")
    report = fields(out)
    c = parse_circuit(Path(RETRY).read_text())
    dense = strong_probability(c, statevector.KERNEL, {c.accept: 1})
    assert abs(float(report["p_accept"]) - dense) <= 1e-12
    q_z = {k[2:].replace(":", "="): float(v) for k, v in report.items() if k.startswith("p.")}
    want = outcome_distribution(c, statevector.KERNEL)
    assert q_z.keys() == want.keys()
    assert all(abs(q_z[key] - want[key]) <= 1e-12 for key in want)


@pytest.mark.parametrize(
    "flags, echoed",
    [
        ([], ""),
        (["--min-postselect-prob", "0"], ""),
        (["--min-postselect-prob", "0.25"], " --min-postselect-prob 0.25"),
    ],
    ids=["defaults", "defaults-given", "min-postselect-prob"],
)
def test_simulate_echoes_the_flags_that_change_the_report(capsys, flags, echoed):
    argv = ["simulate", RETRY, "--trials", "20", "--seed", "3", *flags]
    code, out, _ = run(capsys, argv)
    assert code == 0
    command = fields(out)["command"]
    assert command == f"simulate {RETRY} --backend sv --trials 20 --seed 3{echoed}"
    # the echoed command reproduces the report
    again = run(capsys, command.split())
    assert without_duration(again[1]) == without_duration(out)


def test_simulate_stab_runs_a_conditional_postselect(tmp_path, capsys):
    # on m == 1 qubit 1 is a coin, postselected onto 0, so accept reads 0
    path = tmp_path / "conditional.qc"
    path.write_text(
        "qubits 2\ngate h 0\nmeasure 0 -> m\ngate h 1 if m == 1\n"
        "postselect 1 = 0 if m == 1\naccept 1\n"
    )
    reports = {}
    for backend in ("stab", "sv"):
        code, out, err = run(
            capsys, ["simulate", str(path), "--backend", backend, "--trials", "40"]
        )
        assert (code, err) == (0, "")
        reports[backend] = {k: v for k, v in fields(out).items() if k.startswith("count.")}
    assert reports["stab"] == reports["sv"]
    assert set(reports["stab"]) == {"count.m:0,accept:0", "count.m:1,accept:0"}


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--trials", "0"], "--trials"),
        (["--min-postselect-prob", "nan"], "--min-postselect-prob"),
        (["--trials", "5", "--min-postselect-prob", "0"], "--trials, --min-postselect-prob"),
    ],
    ids=["trials", "min-postselect-prob", "two"],
)
def test_simulate_pathsum_refuses_the_sampling_flags(capsys, flags, named):
    code, out, err = run(capsys, ["simulate", POSTSELECT, "--backend", "pathsum", *flags])
    assert (code, out) == (2, "")
    assert err == f"error: backend pathsum is exact and takes no {named}\n"


@pytest.mark.parametrize("mode", ["strict", "permissive"])
def test_simulate_has_no_rewind_mode_flag(capsys, mode):
    # every rewind is strict; an unchecked restore is written as clone
    with pytest.raises(SystemExit) as info:
        main(["simulate", RETRY, "--mode", mode])
    assert info.value.code == 2
    assert f"unrecognized arguments: --mode {mode}" in capsys.readouterr().err


def test_simulate_without_accept_runs_on_every_backend(tmp_path, capsys):
    # no accept line: no accept figure, as on the sampling backends
    plain = tmp_path / "plain.qc"
    plain.write_text("qubits 1\ngate h 0\nmeasure 0 -> m\n")
    for backend in ("sv", "stab"):
        code, out, err = run(capsys, ["simulate", str(plain), "--backend", backend])
        assert (code, err) == (0, "")
        assert "count.m:0" in fields(out) and "accept_freq" not in fields(out)
    code, out, err = run(capsys, ["simulate", str(plain), "--backend", "pathsum"])
    assert (code, err) == (0, "")
    got = fields(out)
    assert [key for key in got if key.startswith("p.")] == ["p.m:0", "p.m:1"]
    assert "p_accept" not in got
    assert float(got["p.m:0"]) == pytest.approx(0.5, abs=1e-12)


def test_simulate_stab_over_the_tableau_cap_exits_2(tmp_path, monkeypatch, capsys):
    class NoTableau:
        def __init__(self, *args):
            raise RuntimeError("tableau allocated")

    monkeypatch.setattr("rwsim.stabilizer.StabilizerTableau", NoTableau)
    wide = tmp_path / "wide.qc"
    wide.write_text("qubits 16385\nmeasure 0 -> m\n")
    code, out, err = run(capsys, ["simulate", str(wide), "--backend", "stab", "--trials", "2"])
    assert (code, out) == (2, "")
    assert err == "error: 16385 qubits need a tableau of up to 129 MiB, cap is 16384 qubits (128 MiB)\n"


def test_simulate_missing_file(capsys):
    code, _, err = run(capsys, ["simulate", "no-such-circuit.qc"])
    assert code == 2
    assert "cannot read circuit file" in err


def test_simulate_parse_error_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 1\ngate warp 0\n")
    code, _, err = run(capsys, ["simulate", str(bad)])
    assert code == 2
    assert "line 2" in err


def test_simulate_bad_integer_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 1\ngate h x\n")
    code, out, err = run(capsys, ["simulate", str(bad)])
    assert code == 2 and out == ""
    assert err.count("line ") == 1 and "line 2: qubit index must be an integer" in err


def test_simulate_validation_error_names_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.qc"
    bad.write_text("qubits 2\n# comment\ngate h 0\ngate cz 0 2\naccept 0\n")
    code, out, err = run(capsys, ["simulate", str(bad)])
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 4: qubit index 2 out of range for 2 qubits\n"


@pytest.mark.parametrize("backend", ["sv", "stab", "pathsum"])
@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_simulate_non_finite_angle_is_a_usage_error(tmp_path, capsys, backend, angle):
    bad = tmp_path / "bad.qc"
    bad.write_text(f"qubits 1\ngate h 0\ngate rz {angle} 0\ngate h 0\naccept 0\n")
    code, out, err = run(capsys, ["simulate", str(bad), "--backend", backend])
    assert code == 2 and out == ""
    assert "line 3: rz parameter must be a finite real angle" in err


def test_simulate_over_the_width_cap_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "1")
    code, _, err = run(capsys, ["simulate", BELL, "--trials", "2"])
    assert code == 2
    assert err == "error: circuit needs 2 qubits, cap is 1\n"


@pytest.mark.parametrize("k, code", [(3, 0), (4, 2)])
def test_simulate_pathsum_over_the_amplitude_cap_exits_2(
    tmp_path, monkeypatch, capsys, k, code
):
    monkeypatch.setattr("rwsim.pathsum.MAX_AMPLITUDES", 8)
    wide = tmp_path / "wide.qc"
    wide.write_text(f"qubits {k}\n" + "".join(f"gate h {q}\n" for q in range(k)) + "accept 0\n")
    got, out, err = run(capsys, ["simulate", str(wide), "--backend", "pathsum"])
    assert got == code
    if code:
        assert out == "" and err == "error: 16 live amplitudes exceed the cap of 8\n"
    else:
        assert err == "" and float(fields(out)["p_accept"]) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "error, code",
    [
        (CircuitSyntaxError(3, "bad"), 2),
        (CircuitValidationError("bad"), 2),
        (GateSetError("bad"), 2),
        (QubitBudgetError("bad"), 2),
        (pathsum.SizeLimitError("bad"), 2),
        (RewindConsistencyError("bad"), 1),
        (UnknownSnapshotError("bad"), 1),
        (InvalidPostselectionError("bad"), 1),
        (PostselectThresholdError("bad"), 1),
        (DepthLimitError("bad"), 1),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else str(value),
)
def test_every_input_error_and_nothing_else_exits_2(monkeypatch, capsys, error, code):
    assert isinstance(error, InputError) == (code == 2)
    assert isinstance(error, ValueError) or code == 1

    def handler(ns):
        raise error

    monkeypatch.setattr("rwsim.cli.cmd_simulate", handler)
    got, out, err = run(capsys, ["simulate", BELL, "--backend", "stab"])
    shown = str(error) if code == 2 else f"{type(error).__name__}: {error}"
    assert (got, out, err) == (code, "", f"error: {shown}\n")


@pytest.mark.parametrize("value", ["nan", "-1", "1.5"])
def test_min_postselect_prob_outside_0_1_is_refused_before_the_pool(monkeypatch, capsys, value):
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)  # a pool would raise
    code, out, err = run(
        capsys,
        ["simulate", POSTSELECT, "--trials", "4", "--jobs", "2", "--min-postselect-prob", value],
    )
    assert (code, out) == (2, "")
    assert err == f"error: min_postselect_prob must lie in [0, 1], got {float(value)!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", BELL],
        ["demo", "pp"],
        ["demo", "collision"],
        ["demo", "sd", "--c0", SD_C0, "--c1", SD_C1],
        ["demo", "mbqc"],
    ],
    ids=["simulate", "pp", "collision", "sd", "mbqc"],
)
def test_trials_must_be_positive(capsys, argv):
    code, out, err = run(capsys, [*argv, "--trials", "0"])
    assert (code, out, err) == (2, "", "error: --trials must be positive\n")


def test_postselect_threshold_failure_is_a_runtime_error(capsys):
    code, _, err = run(
        capsys,
        ["simulate", POSTSELECT, "--trials", "5", "--min-postselect-prob", "0.9"],
    )
    assert code == 1
    assert "PostselectThresholdError" in err


# ---------------------------------------------------------------------------
# demos


def test_demo_pp_report(capsys):
    code, out, _ = run(capsys, ["demo", "pp", "--n", "2", "--trials", "3"])
    assert code == 0
    report = fields(out)
    assert report["assert.correct_freq>=0.99"] == "pass"
    assert report["correct_freq"] == "1.0"
    first = report["trial.0"]
    for field in ("s:", "expected:", "got:", "correct:"):
        assert field in first


def test_demo_pp_rejects_large_n(capsys):
    code, _, err = run(capsys, ["demo", "pp", "--n", "9"])
    assert code == 2 and "--n" in err


def test_demo_collision_toy(capsys):
    code, out, _ = run(
        capsys, ["demo", "collision", "--family", "toy", "--bits", "4", "--trials", "30"]
    )
    assert code == 0
    report = fields(out)
    assert report["family"] == "toy2reg[4]"
    assert report["domain_size"] == "32"
    assert report["delta"] == "1/1"
    assert report["assert.pairs_verify"] == "pass"
    assert report["assert.success_freq"] == "pass"
    assert report["invalid_pairs"] == "0"


@pytest.mark.parametrize("cap, code", [("17", 0), ("16", 2)])
def test_demo_collision_width_check_matches_the_state(monkeypatch, capsys, cap, code):
    # 9 input and 8 image qubits; a power-of-two domain needs no validity flag
    monkeypatch.setenv("RWSIM_MAX_QUBITS", cap)
    got, _, err = run(capsys, ["demo", "collision", "--bits", "8", "--trials", "2"])
    assert got == code
    assert ("needs 17 qubits" in err) == (code == 2)


def test_demo_pp_width_cap_holds_on_a_cached_mitigation_chain(monkeypatch, capsys):
    # the first run caches the chains; the cap still applies to the second
    monkeypatch.delenv("RWSIM_MAX_QUBITS", raising=False)
    assert run(capsys, ["demo", "pp", "--n", "2", "--trials", "1"])[0] == 0
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "1")
    code, out, err = run(capsys, ["demo", "pp", "--n", "2", "--trials", "1"])
    assert (code, out, err) == (2, "", "error: state needs 3 qubits, cap is 1\n")


def test_demo_collision_no_rewind_skips_small_families(capsys):
    code, out, _ = run(
        capsys,
        [
            "demo", "collision", "--family", "toy", "--bits", "4",
            "--trials", "20", "--no-rewind",
        ],
    )
    assert code == 0
    report = fields(out)
    assert report["rewind"] == "0"
    assert report["assert.success_freq"] == "skipped(fewer than 256 images)"


@pytest.mark.parametrize(
    "lwe, trials, seed, positive",
    [
        # images with three or more preimages, which the strict rewind mostly refuses
        ((2, 5, 3, 1), 200, 1, False),
        ((1, 8, 2, 1), 40, 7, True),  # the default family
    ],
    ids=["crowded-images", "default"],
)
def test_demo_collision_lwe_threshold_is_the_trial_success_probability(
    capsys, lwe, trials, seed, positive
):
    flags = [f"--lwe-{k}={v}" for k, v in zip(("n", "q", "m", "mu"), lwe)]
    code, out, _ = run(
        capsys,
        ["demo", "collision", "--family", "lwe", *flags, "--trials", str(trials),
         "--seed", str(seed)],
    )
    report = fields(out)
    assert code == 0 and report["assert.success_freq"] == "pass"
    family, _ = _collision_family(("lwe", 8, lwe, stream_seed(seed, trials)))
    p = float(collision_success_probability(family))
    want = max(p - 3.0 * math.sqrt(p * (1.0 - p) / trials), 0.0)
    assert float(report["success_threshold"]) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert (want > 0.0) == positive
    assert float(report["success_threshold"]) <= float(report["success_freq"])


def test_demo_sd_exact_lines(capsys):
    code, out, _ = run(
        capsys, ["demo", "sd", "--c0", SD_C0, "--c1", SD_C1, "--trials", "100"]
    )
    assert code == 0
    report = fields(out)
    assert report["p_err"] == "8/15"
    assert report["p_err_prime"] == "7/15"
    assert report["d_tv"] == "1/4"
    assert report["assert.within_3_sigma"] == "pass"


def test_demo_sd_rejects_non_binary_rows(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("01\n# comment\n\n0x\n")
    code, _, err = run(capsys, ["demo", "sd", "--c0", str(bad), "--c1", SD_C1])
    assert (code, err) == (2, f"error: {bad}: line 4: rows must be binary, got '0x'\n")


def test_demo_sd_rejects_ragged_rows(tmp_path, capsys):
    bad = tmp_path / "ragged.txt"
    bad.write_text("01\n0\n")
    code, _, err = run(capsys, ["demo", "sd", "--c0", str(bad), "--c1", SD_C1])
    assert (code, err) == (2, f"error: {bad}: line 2: expected 2 bits per row\n")


def test_demo_sd_rejects_bad_row_count(tmp_path, capsys):
    bad = tmp_path / "three.txt"
    bad.write_text("0\n1\n1\n")
    code, _, err = run(capsys, ["demo", "sd", "--c0", str(bad), "--c1", SD_C1])
    assert code == 2 and "power-of-two" in err


def test_demo_sd_rejects_tables_of_different_sizes(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    wide.write_text("00\n01\n10\n11\n")  # 2-bit outputs against SD_C1's 1-bit
    code, out, err = run(capsys, ["demo", "sd", "--c0", str(wide), "--c1", SD_C1])
    assert (code, out, err) == (2, "", "error: both tables must share input and output sizes\n")


def test_demo_sd_rejects_tables_over_the_qubit_cap(monkeypatch, capsys):
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "3")  # the pair needs 1 + 2 + 1 qubits
    code, out, err = run(capsys, ["demo", "sd", "--c0", SD_C0, "--c1", SD_C1, "--trials", "4"])
    assert (code, out, err) == (2, "", "error: sd instance needs 4 qubits, cap is 3\n")


def test_demo_mbqc_with_pattern_file(capsys):
    code, out, _ = run(
        capsys,
        [
            "demo", "mbqc", "--rows", "2", "--cols", "5",
            "--pattern", str(REPO / PATTERN), "--budget", "3", "--trials", "25",
        ],
    )
    assert code == 0
    report = fields(out)
    assert PATTERN in report["command"]
    assert report["measured_qubits"] == "8"
    assert report["assert.all_zero_freq"] == "pass"
    assert report["assert.fidelity"] == "pass"
    assert float(report["fidelity_min"]) >= 1.0 - 1e-9


def test_demo_mbqc_with_nonzero_angles_matches_its_oracle(tmp_path, capsys):
    angled = tmp_path / "angled.pattern"
    thetas = (0.3, 0.3, -1.25, 0.0, 0.7, 0.3, 2.5, -1.25)
    cells = [(i, j) for j in range(1, 5) for i in (1, 2)]
    angled.write_text("".join(
        f"measure {i} {j} theta {theta!r}\n" for (i, j), theta in zip(cells, thetas)
    ))
    code, out, _ = run(
        capsys,
        [
            "demo", "mbqc", "--rows", "2", "--cols", "5",
            "--pattern", str(angled), "--budget", "3", "--trials", "25",
        ],
    )
    assert code == 0
    assert fields(out)["assert.fidelity"] == "pass"


def test_demo_mbqc_rejects_bad_grid(capsys):
    code, _, err = run(capsys, ["demo", "mbqc", "--rows", "2", "--cols", "6"])
    assert code == 2 and "5 mod 8" in err


def test_demo_mbqc_rejects_wide_grids(capsys):
    code, _, err = run(capsys, ["demo", "mbqc", "--rows", "3", "--cols", "13"])
    assert code == 2 and "39" in err


def test_width_is_checked_before_the_worker_pool_starts(tmp_path, monkeypatch, capsys):
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise RuntimeError("worker pool built")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", NoPool)
    monkeypatch.delenv("RWSIM_MAX_QUBITS", raising=False)
    wide = tmp_path / "wide.qc"
    wide.write_text("qubits 30\ngate h 0\nmeasure 0 -> m\n")
    code, _, err = run(
        capsys, ["simulate", str(wide), "--backend", "sv", "--trials", "4", "--jobs", "2"]
    )
    assert (code, err) == (2, "error: circuit needs 30 qubits, cap is 24\n")
    code, _, err = run(
        capsys, ["simulate", TGATE, "--backend", "stab", "--trials", "4", "--jobs", "2"]
    )
    assert (code, err) == (2, f"error: {TGATE}: line 4: backend stab cannot run gate rz\n")
    wide.write_text("qubits 16385\nmeasure 0 -> m\n")
    code, _, err = run(
        capsys, ["simulate", str(wide), "--backend", "stab", "--trials", "4", "--jobs", "2"]
    )
    assert (code, err) == (
        2, "error: 16385 qubits need a tableau of up to 129 MiB, cap is 16384 qubits (128 MiB)\n"
    )
    code, _, err = run(
        capsys, ["demo", "mbqc", "--rows", "3", "--cols", "13", "--trials", "4", "--jobs", "2"]
    )
    assert (code, err) == (2, "error: 3x13 grid needs 39 qubits, cap is 14\n")
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "16")
    code, _, err = run(
        capsys, ["demo", "collision", "--bits", "8", "--trials", "4", "--jobs", "2"]
    )
    assert (code, err) == (2, "error: family toy2reg[8] needs 17 qubits, cap is 16\n")
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "3")
    code, _, err = run(
        capsys, ["demo", "sd", "--c0", SD_C0, "--c1", SD_C1, "--trials", "4", "--jobs", "2"]
    )
    assert (code, err) == (2, "error: sd instance needs 4 qubits, cap is 3\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("measure 1 4 phi 0.0", "line 2: expected 'measure <i> <j> theta <float>'"),
        ("measure 1 x theta 0.0", "line 2: bad vertex or angle"),
        ("measure 1 4 theta nan", "line 2: theta must be a finite real angle, got nan"),
        ("measure 1 4 theta -inf", "line 2: theta must be a finite real angle, got -inf"),
    ],
    ids=["keywords", "vertex", "nan", "inf"],
)
def test_demo_mbqc_pattern_errors_name_the_file_and_line(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.pattern"
    bad.write_text(f"# one bad line\n{line}\n")
    code, out, err = run(capsys, ["demo", "mbqc", "--pattern", str(bad), "--trials", "2"])
    assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


def test_demo_mbqc_rejects_a_vertex_outside_the_grid(tmp_path, capsys):
    outside = tmp_path / "outside.pattern"
    outside.write_text("measure 3 1 theta 0.0\n")
    code, out, err = run(capsys, ["demo", "mbqc", "--pattern", str(outside), "--trials", "2"])
    assert (code, out, err) == (2, "", "error: vertex (3, 1) outside the 2x5 grid\n")


def test_demo_mbqc_rejects_partial_patterns(tmp_path, capsys):
    partial = tmp_path / "partial.pattern"
    partial.write_text("measure 1 1 theta 0.0\n")
    code, _, err = run(
        capsys,
        ["demo", "mbqc", "--rows", "2", "--cols", "5", "--pattern", str(partial)],
    )
    assert code == 2 and "every column but the last" in err


def test_demo_mbqc_budget_zero_fails_the_fidelity_gate(capsys):
    code, out, _ = run(
        capsys,
        ["demo", "mbqc", "--rows", "2", "--cols", "5", "--budget", "0", "--trials", "5"],
    )
    assert code == 1
    assert fields(out)["assert.fidelity"] == "fail(no all-zero trial)"


@pytest.mark.parametrize("budget, code", [("64", 0), ("65", 2)])
def test_demo_mbqc_caps_the_retry_budget(capsys, budget, code):
    # retry k of a qubit carries k guard clauses: the circuit grows as budget squared
    got, _, err = run(
        capsys,
        ["demo", "mbqc", "--rows", "2", "--cols", "5", "--budget", budget, "--trials", "2"],
    )
    assert got == code
    assert ("error: retry budget 65 is over the cap of 64" in err) == (code == 2)


@pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
def test_a_width_cap_that_is_not_a_positive_integer_is_bad_input(monkeypatch, capsys, value):
    monkeypatch.setenv("RWSIM_MAX_QUBITS", value)
    code, out, err = run(capsys, ["simulate", BELL, "--trials", "2"])
    assert (code, out) == (2, "")
    assert err == f"error: RWSIM_MAX_QUBITS must be a positive integer, got {value!r}\n"


def test_a_width_cap_that_is_not_an_integer_stops_a_demo_with_exit_2(monkeypatch, capsys):
    # in-process: the pp chains may be cached from earlier tests, and the cap still applies
    monkeypatch.setenv("RWSIM_MAX_QUBITS", "abc")
    code, out, err = run(capsys, ["demo", "pp", "--n", "2", "--trials", "1"])
    assert (code, out) == (2, "")
    assert err == "error: RWSIM_MAX_QUBITS must be a positive integer, got 'abc'\n"


def test_demo_mitigate_rewind_report(capsys):
    code, out, _ = run(capsys, ["demo", "mitigate", "--p", "0.5", "--n", "2"])
    assert code == 0
    report = fields(out)
    assert report["outcome"] == "success"
    assert report["levels"] == "7"
    assert float(report["final_odds"]) >= 1.0
    assert report["event.0"].startswith("level:0,attempt:1,z:")
    assert report["assert.success_and_odds"] == "pass"


def test_demo_mitigate_postselect_report(capsys):
    code, out, _ = run(
        capsys,
        ["demo", "mitigate", "--p", "0.9", "--variant", "postselect", "--q", "0.25"],
    )
    assert code == 0
    report = fields(out)
    assert report["rounds"] == "2"
    assert float(report["target_prob"]) >= 0.5
    assert report["assert.target_prob>=0.5"] == "pass"


def test_demo_mitigate_validation(capsys):
    code, _, err = run(capsys, ["demo", "mitigate", "--p", "1.5"])
    assert code == 2 and "--p" in err
    code, _, err = run(
        capsys, ["demo", "mitigate", "--p", "0.9", "--variant", "postselect"]
    )
    assert code == 2 and "--q" in err


# ---------------------------------------------------------------------------
# report plumbing


def test_out_file_mirrors_stdout(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(
        capsys, ["demo", "mitigate", "--p", "0.5", "--n", "2", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text() == out


def test_duration_is_the_last_line(capsys):
    _, out, _ = run(capsys, ["demo", "mitigate", "--p", "0.5", "--n", "2"])
    assert out.splitlines()[-1].startswith("duration_s=")


def test_module_entry_point_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "rwsim", "demo", "mitigate", "--p", "0.5", "--n", "2"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert "outcome=success" in proc.stdout


@pytest.mark.parametrize("q", [1 << 64, 1 << 65])
def test_lwe_modulus_over_the_int64_key_is_refused_at_once(q):
    # a 2^65 modulus once sent the key draw into an endless rejection loop
    proc = subprocess.run(
        [sys.executable, "-m", "rwsim", "demo", "collision", "--family", "lwe",
         "--lwe-q", str(q), "--trials", "1"],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=cli_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: --lwe-q must be at most 2^63: the LWE key is int64\n"


def test_simulate_pathsum_without_measurements_prints_no_empty_outcome(tmp_path, capsys):
    circuit = tmp_path / "plain.qc"
    circuit.write_text("qubits 2\ngate h 0\naccept 0\n")
    code, out, err = run(capsys, ["simulate", str(circuit), "--backend", "pathsum"])
    assert code == 0 and err == ""
    assert float(fields(out)["p_accept"]) == pytest.approx(0.5, abs=1e-12)
    assert not [line for line in out.splitlines() if line.startswith("p.")]


def test_simulate_pathsum_over_64_outcomes_prints_their_count(tmp_path, capsys):
    circuit = tmp_path / "wide.qc"
    circuit.write_text(
        "qubits 7\n" + "".join(f"gate h {q}\n" for q in range(7))
        + "".join(f"measure {q} -> m{q}\n" for q in range(7))
    )
    code, out, err = run(capsys, ["simulate", str(circuit), "--backend", "pathsum"])
    assert code == 0 and err == ""
    assert fields(out)["outcomes"] == "128"
    assert not [line for line in out.splitlines() if line.startswith("p.")]

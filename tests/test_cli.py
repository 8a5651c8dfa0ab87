"""Command-line behavior: generation, solving, verification, reports."""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from flowlab.cli import _parse_seeds, main
from flowlab.core import FlowNetwork
from flowlab.experiment import ExperimentSpec, run_experiment
from flowlab.formats import format_flow, read_smoothed, write_dimacs
from flowlab.generators import NsParams, gen_ns_lower_bound


def test_gen_writes_instance_with_structure(tmp_path):
    path = tmp_path / "ns.min"
    rc = main(
        ["gen", "--family", "ns_lower", "--n", "6", "--m", "10", "--phi", "64",
         "--out", str(path)]
    )
    assert rc == 0
    inst, structure = read_smoothed(path)
    want_inst, want_structure = gen_ns_lower_bound(NsParams(6, 10, 64), 0)
    assert inst == want_inst
    assert structure == want_structure


def test_gen_stdout_and_phi_validation(tmp_path, capsys):
    rc = main(["gen", "--family", "mmcc_general", "--n", "6", "--m", "12", "--phi", "64"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("c node 1 a\n")
    assert "p min 17 38" in out

    assert main(["gen", "--family", "mmcc_general", "--n", "6", "--m", "12", "--phi", "65"]) == 2
    assert "power-of-two" in capsys.readouterr().err
    assert main(["gen", "--family", "mmcc_general", "--n", "6", "--m", "12"]) == 2
    assert "--phi is required" in capsys.readouterr().err
    assert main(["gen", "--family", "mmcc_large_phi", "--n", "4", "--m", "9", "--phi", "64"]) == 2
    assert "fixed by" in capsys.readouterr().err


def test_solve_and_verify_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "general.min"
    flow_path = tmp_path / "flow.txt"
    assert main(["gen", "--family", "mmcc_general", "--n", "6", "--m", "12",
                 "--phi", "64", "--out", str(inst_path)]) == 0
    rc = main(["solve", "--input", str(inst_path), "--seed", "3",
               "--flow-out", str(flow_path)])
    assert rc == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["algorithm"] == "mmcc"
    assert lines["iterations"] == "12"
    assert lines["degenerate"] == "0"

    assert main(["verify", str(inst_path), str(flow_path), "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("optimal cost ")

    # the same flow is wrong for a different realization seed
    tampered = flow_path.read_text().replace("f 1 5", "c f 1 5", 1)
    (tmp_path / "bad.txt").write_text(tampered)
    assert main(["verify", str(inst_path), str(tmp_path / "bad.txt"), "--seed", "3"]) == 2
    assert "infeasible" in capsys.readouterr().out


def test_solve_ns_uses_stored_structure(tmp_path, capsys):
    inst_path = tmp_path / "ns.min"
    assert main(["gen", "--family", "ns_lower", "--n", "6", "--m", "10", "--phi", "64",
                 "--out", str(inst_path)]) == 0
    rc = main(["solve", "--input", str(inst_path), "--algorithm", "ns", "--seed", "5"])
    assert rc == 0
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["nondegenerate"] == "120"


def test_verify_prints_negative_cycle_witness(tmp_path, capsys):
    net = FlowNetwork.from_data(
        4,
        [(0, 1, 4, 1), (1, 3, 4, 1), (0, 2, 4, 5), (2, 3, 4, 5)],
        budgets=[2, 0, 0, -2],
    )
    inst_path = tmp_path / "plain.min"
    flow_path = tmp_path / "flow.txt"
    write_dimacs(net, inst_path)
    from flowlab.core import Flow

    flow_path.write_text(format_flow(net, Flow((Fraction(0), Fraction(0), Fraction(2), Fraction(2)))))
    rc = main(["verify", str(inst_path), str(flow_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "not optimal" in out
    assert "negative cycle" in out


def test_experiment_matches_prediction_and_is_deterministic(tmp_path, capsys):
    argv = ["experiment", "--family", "mmcc_general", "--n", "6", "--m", "12",
            "--phi", "64", "--seeds", "0..4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    body = first.splitlines()
    assert body[0] == "# flowlab-experiment-v1"
    assert body[1].startswith("family,n,m,phi,seed,")
    rows = body[2:]
    assert len(rows) == 5
    for row in rows:
        fields = row.split(",")
        assert fields[6] == fields[10] == "12"
        assert fields[11] == "true"

    assert main(argv) == 0
    assert capsys.readouterr().out == first
    out_path = tmp_path / "report.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    assert out_path.read_text() == first


def test_experiment_all_algorithms_agree_on_cost(capsys):
    rc = main(["experiment", "--family", "random", "--n", "5", "--m", "7",
               "--phi", "16", "--seeds", "0,1,2", "--algorithm", "all"])
    assert rc == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 9
    by_seed = {}
    for fields in rows:
        by_seed.setdefault(fields[4], set()).add(fields[9])
        assert fields[10] == ""
    assert all(len(costs) == 1 for costs in by_seed.values())


def test_experiment_reports_prediction_mismatch(capsys):
    rc = main(["experiment", "--family", "mmcc_general", "--n", "8", "--m", "16",
               "--phi", "256", "--seeds", "0"])
    assert rc == 1
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[10] == "48"
    assert row[6] != "48"
    assert row[11] == "false"


def test_experiment_propagates_generation_failures(capsys):
    rc = main(["experiment", "--family", "random", "--n", "5", "--m", "7",
               "--phi", "16", "--seeds", "4"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_experiment_csv_bytes_are_pinned(capsys):
    # flowlab-experiment-v1 output stays byte-identical.  Only the bytes
    # are pinned: the exit code is 1 while the MMCC count misses the
    # paper's prediction.
    main(["experiment", "--family", "mmcc_general", "--n", "8", "--m", "16",
          "--phi", "256", "--seeds", "0..2", "--algorithm", "all"])
    out = capsys.readouterr().out.encode()
    assert out.startswith(b"# flowlab-experiment-v1\n")
    assert hashlib.sha256(out).hexdigest() == (
        "ab2b735376d3bcdb2eec96a0664b9ae77b506f40388424bfb8dbfb518ca150b6"
    )


def test_parse_seeds_forms():
    assert _parse_seeds("0..3,7") == (0, 1, 2, 3, 7)
    assert _parse_seeds("5") == (5,)
    with pytest.raises(ValueError):
        _parse_seeds("")
    assert _parse_seeds("3..3") == (3,)
    # a range that ends below its start is an error, not an empty range
    with pytest.raises(ValueError, match="seed range '5..3' ends below its start"):
        _parse_seeds("1,5..3")


def test_experiment_names_the_seed_range_that_ends_below_its_start(capsys):
    # argparse prints the text of the parser's own error, not its
    # generic "invalid _parse_seeds value"
    argv = ["experiment", "--family", "random", "--n", "8", "--m", "20", "--phi", "16",
            "--seeds", "1,5..3"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seeds: seed range '5..3' ends below its start" in err
    assert "invalid" not in err


@pytest.mark.parametrize("seeds, chunk", [("1,x", "x"), ("1,,2", ""), ("3..x", "3..x")])
def test_experiment_names_the_seed_that_is_not_an_integer(capsys, seeds, chunk):
    argv = ["experiment", "--family", "random", "--n", "8", "--m", "20", "--phi", "16",
            "--seeds", seeds]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seeds: seed %r is not an integer" % chunk in err
    assert "invalid" not in err


EXPERIMENT = ["experiment", "--family", "random", "--n", "8", "--m", "20", "--phi", "16"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (EXPERIMENT + ["--seeds=-2..1"], "argument --seeds: seed '-2..1' is negative"),
        (EXPERIMENT + ["--seeds", "0,-1"], "argument --seeds: seed '-1' is negative"),
        (EXPERIMENT + ["--seeds", "0", "--pair-seed", "-3"],
         "argument --pair-seed: seed '-3' is negative"),
        (["gen", "--family", "random", "--n", "8", "--m", "20", "--phi", "16", "--seed", "-1"],
         "argument --seed: seed '-1' is negative"),
        (["solve", "--input", "none.min", "--seed", "-1"],
         "argument --seed: seed '-1' is negative"),
        (["verify", "a.min", "b.flow", "--seed=-2"], "argument --seed: seed '-2' is negative"),
        # a single seed that is not an integer keeps argparse's text for ``type=int``
        (EXPERIMENT + ["--seeds", "0", "--pair-seed", "1..2"],
         "argument --pair-seed: invalid int value: '1..2'"),
    ],
    ids=["seed-range", "seed-list", "pair-seed", "gen", "solve", "verify", "not-an-integer"],
)
def test_the_command_line_rejects_negative_seeds(capsys, argv, message):
    # ``random.Random`` takes the absolute value of a seed, so -k would
    # name the same instance and cost draw as k
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec("nope", 4, 9, Fraction(64), (0,))
    with pytest.raises(ValueError):
        ExperimentSpec("random", 4, 5, Fraction(64), (0,), algorithm="bogus")
    spec = ExperimentSpec("ns_lower", 6, 10, Fraction(64), (1, 0), algorithm="ns")
    text, ok = run_experiment(spec)
    assert ok
    rows = text.splitlines()[2:]
    # rows come out seed-ordered no matter the input order
    assert [r.split(",")[4] for r in rows] == ["0", "1"]
    assert all(r.split(",")[7] == "120" for r in rows)


def test_experiment_spec_requires_phi():
    for family in ("mmcc_general", "ns_lower", "random"):
        with pytest.raises(ValueError, match="phi is required for this family"):
            ExperimentSpec(family, 6, 10, None, (0,))
    # the large-phi family fixes its own phi, and the power-of-two rule
    # belongs to the command line only
    ExperimentSpec("mmcc_large_phi", 4, 9, None, (0,))
    with pytest.raises(ValueError, match="phi is fixed by the mmcc_large_phi family"):
        ExperimentSpec("mmcc_large_phi", 4, 9, Fraction(3), (0,))
    ExperimentSpec("ns_lower", 6, 10, Fraction(129, 2), (0,))


def test_solve_rejects_a_stored_start_that_breaks_conservation(tmp_path, capsys):
    path = tmp_path / "general.min"
    assert main(["gen", "--family", "mmcc_general", "--n", "6", "--m", "12",
                 "--phi", "64", "--out", str(path)]) == 0
    text = path.read_text()
    assert "\nf 1 5 0\n" in text
    path.write_text(text.replace("\nf 1 5 0\n", "\nf 1 5 1\n"))
    capsys.readouterr()
    assert main(["solve", "--input", str(path), "--algorithm", "mmcc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stored starting flow: conservation: node a is off by -1\n"


def test_python_dash_m_runs_the_command_line(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["gen", "--family", "mmcc_general", "--n", "6", "--m", "12", "--phi", "64"]
    done = subprocess.run(
        [sys.executable, "-m", "flowlab", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out
    assert "p min 17 38" in done.stdout


def _solve_stdout(tmp_path, capsys, gen_argv, solve_argv):
    inst_path = tmp_path / "instance.min"
    assert main(["gen", *gen_argv, "--out", str(inst_path)]) == 0
    assert main(["solve", "--input", str(inst_path), *solve_argv]) == 0
    return capsys.readouterr().out


# Each expected stdout below was taken before the solve and experiment
# commands were merged onto one solver dispatch.
def test_solve_ssp_output(tmp_path, capsys):
    out = _solve_stdout(
        tmp_path, capsys,
        ["--family", "mmcc_general", "--n", "6", "--m", "12", "--phi", "64"],
        ["--algorithm", "ssp", "--seed", "3"],
    )
    assert out == (
        "algorithm ssp\niterations 12\nnondegenerate 12\ndegenerate 0\n"
        "cost 54797486519/137438953472\n"
    )


def test_solve_ns_builds_a_tree_when_the_file_has_none(tmp_path, capsys):
    # a random instance file stores neither a tree nor a starting flow
    out = _solve_stdout(
        tmp_path, capsys,
        ["--family", "random", "--n", "7", "--m", "12", "--phi", "16", "--seed", "2"],
        ["--algorithm", "ns", "--seed", "1"],
    )
    assert out == (
        "algorithm ns\niterations 3\nnondegenerate 2\ndegenerate 1\n"
        "cost 15990660011/4294967296\n"
    )


def test_solve_ns_strongly_feasible_output(tmp_path, capsys):
    out = _solve_stdout(
        tmp_path, capsys,
        ["--family", "ns_lower", "--n", "6", "--m", "10", "--phi", "64"],
        ["--algorithm", "ns", "--strongly-feasible", "--seed", "5"],
    )
    assert out == (
        "algorithm ns\niterations 131\nnondegenerate 120\ndegenerate 11\n"
        "cost 26620021246685/34359738368\n"
    )


def test_solve_rejects_strongly_feasible_outside_ns(tmp_path, capsys):
    inst_path = tmp_path / "general.min"
    assert main(["gen", "--family", "mmcc_general", "--n", "6", "--m", "12",
                 "--phi", "64", "--out", str(inst_path)]) == 0
    for algorithm in ("mmcc", "ssp"):
        rc = main(["solve", "--input", str(inst_path), "--algorithm", algorithm,
                   "--strongly-feasible"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --strongly-feasible applies to --algorithm ns only\n"

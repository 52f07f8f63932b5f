"""End-to-end runs of the command line front door, in process."""
import ast
import os
import shutil
import subprocess
import sys

import pytest

import commonality
from commonality.certificate import data_path
from commonality.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_m_triangle_at_half(capsys):
    code, out, _ = run(capsys, "m", "k3", "--graphon", "half")
    assert code == 0
    assert out.strip() == "0.25"


def test_density_exact_fraction(capsys):
    code, out, _ = run(capsys, "density", "c4", "--graphon", "half", "--exact")
    assert code == 0
    assert out.strip() == "1/16"


def test_tritree_recognized(capsys):
    code, out, _ = run(capsys, "tritree", "jst")
    assert code == 0
    assert out.strip() == "triangle-tree phi=3 kappa=0"


def test_tritree_rejected(capsys):
    code, out, _ = run(capsys, "tritree", "c5")
    assert code == 1
    assert out.strip() == "not a triangle-tree"


def test_expand_check_random_kernel(capsys):
    code, out, _ = run(capsys, "expand-check", "bull", "--graphon", "random:3:11")
    assert code == 0
    rows = dict(ln.split("\t") for ln in out.strip().splitlines())
    assert set(rows) == {"m", "expansion", "gap"}
    assert abs(float(rows["gap"])) <= 1e-9


def test_expand_check_exact(capsys):
    code, out, _ = run(capsys, "expand-check", "k3", "--graphon", "half", "--exact")
    assert code == 0
    assert "gap\t0" in out


def test_inequalities_single_kernel(capsys):
    code, out, _ = run(capsys, "inequalities", "--graphon", "half")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name\tholds\tslack\tlhs\trhs"
    assert all("\tfalse\t" not in ln for ln in lines)


def test_inequalities_suite_sweep(capsys):
    code, out, _ = run(capsys, "inequalities", "--suite", "4", "--seed", "9")
    assert code == 0
    assert out.strip().splitlines()[-1] == "violations\t0"


def test_verify_certificate_packaged(capsys):
    code, out, _ = run(capsys, "verify-certificate", "--suite", "20")
    assert code == 0
    assert out.strip().splitlines()[-1] == "verdict\tok"
    assert "rank-a\t15" in out


def test_verify_certificate_explicit_path(tmp_path, capsys):
    shutil.copy(data_path(), tmp_path / "tables.txt")
    shutil.copy(data_path("certificate_tables.sums"), tmp_path / "tables.sums")
    code, out, _ = run(capsys, "verify-certificate", str(tmp_path / "tables.txt"),
                       "--suite", "5")
    assert code == 0
    assert out.strip().splitlines()[-1] == "verdict\tok"


def test_verify_certificate_corrupted_table(tmp_path, capsys):
    text = open(data_path()).read().replace("465 465 45", "465 464 45")
    (tmp_path / "tables.txt").write_text(text)
    shutil.copy(data_path("certificate_tables.sums"), tmp_path / "tables.sums")
    code, _, err = run(capsys, "verify-certificate", str(tmp_path / "tables.txt"))
    assert code == 2
    assert "checksum mismatch" in err


def test_minimize_prints_result_and_kernel(capsys):
    code, out, _ = run(capsys, "minimize", "k3", "--parts", "2", "--restarts", "4")
    assert code == 0
    rows = dict(ln.split("\t") for ln in out.strip().splitlines() if "\t" in ln)
    assert rows["verdict"] == "at-target"
    assert abs(float(rows["value"]) - 0.25) <= 1e-5
    # kernel text: part count line then weights then matrix rows
    tail = [ln for ln in out.strip().splitlines() if "\t" not in ln]
    assert tail[0] == "2"
    assert len(tail) == 4


def test_minimize_six_parts_on_eight_vertices(capsys):
    # 6^8 assignments: the gradient must come from the elimination plan
    code, out, _ = run(capsys, "minimize", "beachball:3", "--parts", "6",
                       "--restarts", "2", "--max-iter", "10")
    assert code == 0
    rows = dict(ln.split("\t") for ln in out.strip().splitlines() if "\t" in ln)
    assert "verdict" in rows


def test_ramsey_output(capsys):
    code, out, _ = run(capsys, "ramsey", "k3", "6")
    assert code == 0
    rows = dict(ln.split("\t") for ln in out.strip().splitlines())
    assert rows["copies"] == "12"
    assert rows["normalized"] == "0.1"
    assert rows["counting"] == "injective vertex maps"


def test_ramsey_exact_ratio(capsys):
    for n, copies, ratio in (("7", "24", "4/35"), ("8", "48", "1/7")):
        code, out, _ = run(capsys, "ramsey", "k3", n, "--exact")
        assert code == 0
        assert "copies\t%s" % copies in out
        assert "normalized\t%s" % ratio in out


def test_catalog_lists_names(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    rows = [ln.split("\t") for ln in out.strip().splitlines()]
    names = [r[0] for r in rows]
    assert "k3" in names and "jst" in names and "beachball:2" in names
    lookup = {r[0]: (int(r[1]), int(r[2])) for r in rows}
    assert lookup["jst"] == (7, 9)
    assert lookup["beachball:2"] == (6, 12)


def test_graph_file_argument(tmp_path, capsys):
    (tmp_path / "tri.txt").write_text("3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "m", str(tmp_path / "tri.txt"), "--graphon", "half")
    assert code == 0
    assert out.strip() == "0.25"


def test_block_kernel_shorthand(tmp_path, capsys):
    (tmp_path / "red.txt").write_text("5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    code, out, _ = run(capsys, "m", "k3", "--graphon",
                       "block:%s" % (tmp_path / "red.txt"), "--exact")
    assert code == 0
    # pentagon colouring: no red triangles; the 35 blue maps include the
    # collapsed ones (brute-forced independently)
    assert out.strip() == "7/25"


# suite sizes, part counts and tolerances out of range are bad input; each
# run comes with a piece of the error message, which names the value
BAD_NUMBER_RUNS = [
    (["inequalities", "--suite", "-3"], "got -3"),
    (["verify-certificate", "--suite", "-1"], "got -1"),
    (["m", "k3", "--graphon", "random:-2:1"], "got -2"),
    (["m", "k3", "--graphon", "random:0:1"], "got 0"),
    (["expand-check", "k3", "--graphon", "half", "--tolerance", "-1"], "got -1"),
    (["expand-check", "k3", "--graphon", "half", "--tolerance", "nan"], "got nan"),
    (["inequalities", "--graphon", "half", "--tolerance=-1e-3"], "got -1e-3"),
    (["inequalities", "--suite", "1", "--tolerance", "inf"], "got inf"),
    (["verify-certificate", "--tolerance=-inf"], "got -inf"),
    # 5^16 float64 entries per kernel would need far more memory than any
    # machine has: a size error, not a numpy memory error with exit 1
    (["m", "k16", "--graphon", "random:5:1"], "float evaluation too large"),
    (["minimize", "k16", "--parts", "5"], "float evaluation too large"),
]


def test_parse_errors_exit_two(capsys):
    assert run(capsys, "m", "nosuchgraph", "--graphon", "half")[0] == 2
    assert run(capsys, "m", "k3", "--graphon", "random:badspec")[0] == 2
    assert run(capsys, "density", "k3", "--graphon", "random:2:5", "--exact")[0] == 2
    assert run(capsys, "ramsey", "k3", "9")[0] == 2
    assert run(capsys, "nosuchverb")[0] == 2
    # a shared flag that the verb does not read is rejected, not ignored
    assert run(capsys, "verify-certificate", "--exact")[0] == 2
    assert run(capsys, "minimize", "k3", "--exact")[0] == 2
    assert run(capsys, "tritree", "jst", "--seed", "1")[0] == 2
    # a suite sweeps float kernels, so --exact without --graphon is not honoured
    code, out, err = run(capsys, "inequalities", "--exact", "--suite", "3")
    assert (code, out) == (2, "") and "--graphon" in err
    for argv, message in BAD_NUMBER_RUNS:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, (argv, err)


def test_bad_kernels_exit_two_under_optimize(tmp_path):
    # kernel validation must survive python -O, which strips assert statements
    (tmp_path / "range.txt").write_text("1\n1\n2\n")
    (tmp_path / "asym.txt").write_text("2\n1/2 1/2\n0.2 0.3\n0.4 0.2\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(commonality.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    for name in ("range.txt", "asym.txt"):
        proc = subprocess.run([sys.executable, "-O", "-m", "commonality.cli", "m", "k3",
                               "--graphon", str(tmp_path / name)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, (name, proc.stdout, proc.stderr)
        assert "invalid kernel" in proc.stderr
        assert proc.stdout == ""


BAD_GRAPH_RUNS = [["m", spec, "--graphon", "half"]
                  for spec in ("k0", "k17", "c2", "p0", "k9,9", "beachball:1", "d:0")]
BAD_GRAPH_RUNS.append(["expand-check", "k7", "--graphon", "half"])


def test_bad_graphs_exit_two(capsys):
    for argv in BAD_GRAPH_RUNS:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.strip() != "error:", argv


def _run_under_optimize(runs):
    """(code, stdout, stderr) of main(argv) for each argv, all in one
    python -O process, which strips assert statements."""
    script = "\n".join([
        "import contextlib, io",
        "from commonality.cli import main",
        "for argv in %r:" % runs,
        "    out, err = io.StringIO(), io.StringIO()",
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
        "        code = main(argv)",
        "    print(repr((code, out.getvalue(), err.getvalue().strip())))",
    ])
    src = os.path.dirname(os.path.dirname(os.path.abspath(commonality.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    results = [ast.literal_eval(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(runs)
    return results


def test_bad_graphs_exit_two_under_optimize():
    # catalog parameters and the expansion cap must survive python -O
    for argv, (code, out, err) in zip(BAD_GRAPH_RUNS, _run_under_optimize(BAD_GRAPH_RUNS)):
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err != "error:", (argv, err)


def test_bad_numbers_exit_two_under_optimize():
    # so must the checks on suite sizes, part counts and tolerances
    runs = [argv for argv, _ in BAD_NUMBER_RUNS]
    for (argv, message), (code, out, err) in zip(BAD_NUMBER_RUNS, _run_under_optimize(runs)):
        assert (code, out) == (2, ""), argv
        assert message in err, (argv, err)


def test_internal_failure_is_not_bad_input(monkeypatch):
    # an internal invariant failure must surface as a traceback, not exit 2;
    # the package's own invariants raise RuntimeError, which survives -O
    for error in (AssertionError, RuntimeError):
        def broken(h):
            raise error("internal invariant")

        monkeypatch.setattr("commonality.cli.find_triangle_decomposition", broken)
        with pytest.raises(error):
            main(["tritree", "k3"])


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0

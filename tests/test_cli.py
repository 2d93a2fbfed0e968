"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main


def test_info(capsys):
    assert main(["info", "--dims", "16", "64"]) == 0
    out = capsys.readouterr().out
    assert "226" in out  # dimension-independent kd fanout
    assert "hybrid" in out


def test_generate_build_query_roundtrip(tmp_path, capsys):
    data_path = str(tmp_path / "d.npy")
    tree_path = str(tmp_path / "t.pages")
    assert main([
        "generate", "--dataset", "clustered", "--count", "800",
        "--dims", "6", "--seed", "3", "--out", data_path,
    ]) == 0
    data = np.load(data_path)
    assert data.shape == (800, 6)

    assert main(["build", "--data", data_path, "--out", tree_path, "--bulk"]) == 0
    capsys.readouterr()

    vector = ",".join(str(float(x)) for x in data[13])
    assert main([
        "query", "--tree", tree_path, "--vector", vector, "--knn", "3",
        "--metric", "l1",
    ]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.strip().splitlines() if line]
    assert len(lines) == 3
    first_oid, first_dist = lines[0].split("\t")
    assert first_oid == "13" and float(first_dist) == 0.0


def test_query_radius_and_box(tmp_path, capsys):
    data_path = str(tmp_path / "d.npy")
    tree_path = str(tmp_path / "t.pages")
    main(["generate", "--dataset", "uniform", "--count", "500", "--dims", "3",
          "--out", data_path])
    main(["build", "--data", data_path, "--out", tree_path])
    capsys.readouterr()

    data = np.load(data_path)
    vector = ",".join(str(float(x)) for x in data[0])
    assert main([
        "query", "--tree", tree_path, "--vector", vector, "--radius", "0.2",
    ]) == 0
    out = capsys.readouterr().out
    assert "0\t0.000000" in out

    assert main(["query", "--tree", tree_path, "--box", "0,0,0:1,1,1"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 500


def test_query_requires_mode(tmp_path):
    data_path = str(tmp_path / "d.npy")
    tree_path = str(tmp_path / "t.pages")
    main(["generate", "--dataset", "uniform", "--count", "50", "--dims", "2",
          "--out", data_path])
    main(["build", "--data", data_path, "--out", tree_path])
    with pytest.raises(SystemExit):
        main(["query", "--tree", tree_path, "--vector", "0.5,0.5"])


def test_bad_metric_rejected(tmp_path):
    data_path = str(tmp_path / "d.npy")
    tree_path = str(tmp_path / "t.pages")
    main(["generate", "--dataset", "uniform", "--count", "50", "--dims", "2",
          "--out", data_path])
    main(["build", "--data", data_path, "--out", tree_path])
    with pytest.raises(SystemExit):
        main(["query", "--tree", tree_path, "--vector", "0.5,0.5", "--knn", "1",
              "--metric", "hamming"])


def test_custom_lp_metric(tmp_path, capsys):
    data_path = str(tmp_path / "d.npy")
    tree_path = str(tmp_path / "t.pages")
    main(["generate", "--dataset", "uniform", "--count", "200", "--dims", "2",
          "--out", data_path])
    main(["build", "--data", data_path, "--out", tree_path])
    capsys.readouterr()
    assert main(["query", "--tree", tree_path, "--vector", "0.5,0.5",
                 "--knn", "2", "--metric", "3"]) == 0


def test_bench_smoke(capsys):
    assert main(["bench", "--figure", "fig5", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "hybrid" in out and "hybrid-vam" in out


@pytest.mark.parametrize("index", ["scan", "vafile"])
def test_bench_batch_on_structures_without_snapshots(index, capsys):
    assert main(["bench-batch", "--index", index, "--dataset", "uniform",
                 "--count", "2000", "--dims", "8", "--queries", "50"]) == 0
    assert "range" in capsys.readouterr().out


@pytest.mark.parametrize("cmd", [
    ["generate", "--dataset", "colhist", "--count", "100", "--dims", "8",
     "--out", "unused.npy"],
    ["bench-batch", "--dataset", "colhist", "--count", "100", "--dims", "8",
     "--queries", "5"],
])
def test_unsupported_dims_exit_with_one_line(cmd, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(cmd)
    assert "--dataset colhist: dims must be one of" in str(exc.value.code)

    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *cmd],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [str(exc.value.code)]
    assert not (tmp_path / "unused.npy").exists()


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "t.pages"
    data = np.random.default_rng(0).random((300, 4)).astype(np.float32)
    repro.HybridTree.bulk_load(data).save(path)
    return path


def _one_line_exit(argv: list[str], cwd, message: str) -> None:
    """``argv`` exits with ``message``: in process as ``SystemExit``, and as
    a subprocess with status 1, that line on stderr and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert message in str(exc.value.code)
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.strip().splitlines() == [str(exc.value.code)]


@pytest.mark.parametrize("args, message", [
    (["--knn", "3"], "--knn needs --vector"),
    (["--radius", "0.1"], "--radius needs --vector"),
    (["--knn", "3", "--vector", "0.1,x,0.3,0.4"], "is not a comma-separated list"),
    (["--knn", "3", "--vector", "0.1,0.2,0.3"], "--vector has 3 values; the tree has 4"),
    (["--knn", "3", "--vector", "0.1,nan,0.3,0.4"], "--vector holds NaN"),
    (["--knn", "3", "--vector", "0.1,inf,0.3,0.4"], "--vector must be finite"),
    (["--knn", "0", "--vector", "0.1,0.2,0.3,0.4"], "--knn must be >= 1"),
    (["--radius", "-1", "--vector", "0.1,0.2,0.3,0.4"], "--radius must be >= 0"),
    (["--box", "0,0,0,0"], "--box must be 'low1,low2,...:high1,high2,...'"),
    (["--box", "0,0,0:1,1,1"], "--box low has 3 values"),
    (["--box", "0,0,0,0:1,1,1,1,1"], "--box high has 5 values"),
    (["--box", "0,0.5,0,0:1,0.25,1,1"], "--box low exceeds high in dim 1"),
    (["--box", "0,0,0,0:1,one,1,1"], "--box high: '1,one,1,1' is not"),
])
def test_bad_query_input_exits_with_one_line(small_tree, tmp_path, args, message):
    _one_line_exit(["query", "--tree", str(small_tree), *args], tmp_path, message)


def test_good_query_input_still_answers(small_tree, capsys):
    assert main(["query", "--tree", str(small_tree), "--box=-inf,0,0,0:inf,1,1,1"]) == 0
    assert len(capsys.readouterr().out.split()) == 300


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "insert"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "beyond-float32"])
def test_build_on_non_finite_data_exits_with_one_line(tmp_path, bulk, bad):
    data = np.random.default_rng(1).random((200, 4))
    data[[7, 150], 2] = bad
    np.save(tmp_path / "d.npy", data)
    argv = ["build", "--data", "d.npy", "--out", "t.pages"] + (["--bulk"] if bulk else [])
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        _one_line_exit(argv, tmp_path, "d.npy: 2 row(s) not finite in float32, the first is row 7")
    finally:
        os.chdir(cwd)
    assert not (tmp_path / "t.pages").exists()


def test_expired_bench_batch_deadline_exits_with_one_line(tmp_path):
    """Under the default ``--on-timeout raise`` an expired deadline ends
    ``bench-batch`` with status 1 and one line naming it, no traceback."""
    argv = ["bench-batch", "--dataset", "uniform", "--count", "2000", "--dims", "8",
            "--queries", "20", "--timeout", "0.000001"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "query deadline of 1e-06s exceeded" in str(exc.value.code)
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "query deadline of 1e-06s exceeded" in proc.stderr.strip().splitlines()[-1]

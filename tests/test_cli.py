"""End-to-end command-line behavior: files in, JSON/CSV out, exit codes."""

import json
import math

import numpy as np
import pytest

from kcpd import GaussianKernel, LinearKernel, Signal, segment_cost_direct
from kcpd.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    _FAMILIES,
    InfeasibleError,
    _bench_signal,
    _kernel_doc,
    build_kernel,
    load_csv,
    main,
    run_bench,
    run_segment,
    save_csv,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_with_and_without_header(tmp_path):
    p1 = _write(tmp_path / "a.csv", "x0,x1\n1.0,2.0\n3.0,4.0\n")
    s1 = load_csv(p1)
    p2 = _write(tmp_path / "b.csv", "1.0,2.0\n3.0,4.0\n")
    s2 = load_csv(p2)
    np.testing.assert_array_equal(s1.data, s2.data)
    assert s1.q == 2
    # a byte-order mark must not turn a headerless first row into a header
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n3.5\n4.5\n")
    np.testing.assert_array_equal(load_csv(str(bom)).data[:, 0], [1.5, 2.5, 3.5, 4.5])


def test_load_csv_errors(tmp_path, capsys):
    bad = _write(tmp_path / "bad.csv", "1.0\n2.0\noops\n")
    rc = main(["segment", "--input", bad])
    assert rc == EXIT_INPUT
    assert "line 3" in capsys.readouterr().err

    nonfinite = _write(tmp_path / "nf.csv", "1.0\nnan\n3.0\n")
    assert main(["segment", "--input", nonfinite]) == EXIT_INPUT

    ragged = _write(tmp_path / "rag.csv", "1.0,2.0\n3.0\n")
    assert main(["segment", "--input", ragged]) == EXIT_INPUT

    assert main(["segment", "--input", str(tmp_path / "missing.csv")]) == EXIT_INPUT

    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes(b"caf\xe9\n1.0\n2.0\n")
    capsys.readouterr()
    assert main(["segment", "--input", str(latin1)]) == EXIT_INPUT
    assert str(latin1) in capsys.readouterr().err


def test_unwritable_output_exit_code(tmp_path, capsys, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran before the output path was checked")

    # every subcommand refuses the path before any computation
    monkeypatch.setattr("kcpd.cli._solve", no_engine)
    inp = _write(tmp_path / "x.csv", "\n".join(str(float(v % 7)) for v in range(40)) + "\n")
    bad = str(tmp_path / "missing-dir" / "out")
    for argv in (
        ["segment", "--input", inp, "--dmax", "3", "--c1", "1", "--c2", "1", "--output", bad],
        ["segment", "--input", inp, "--dmax", "3", "--output", str(tmp_path)],
        ["bench", "--grid", "100", "--algorithms", "exact", "--dmax", "3", "--output", bad],
        ["simulate", "--n", "50", "--output", bad],
        ["simulate", "--n", "50", "--output", str(tmp_path / "s.csv"), "--truth", bad],
    ):
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and argv[-1] in err
        assert "Traceback" not in err
    # the unwritable sidecar is refused before the signal is written
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("argv", [["segment", "--input", "x.csv", "--x0", "abc"],
                                  ["bench", "--grid", "1,a"]])
def test_malformed_list_flag_is_a_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT


def test_csv_roundtrip(tmp_path, rng):
    sig = Signal(rng.normal(size=(20, 2)))
    path = str(tmp_path / "sig.csv")
    save_csv(sig, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.data, sig.data)


def test_save_csv_text(tmp_path):
    # shortest round-trip repr of each value, signed zero and subnormals included
    sig = Signal([[-0.0, 0.1], [1 / 3, 5e-324], [1e16, 2.0]])
    path = tmp_path / "sig.csv"
    save_csv(sig, str(path))
    assert path.read_bytes() == b"-0.0,0.1\n0.3333333333333333,5e-324\n1e+16,2.0\n"


def test_infeasible_configuration_exit_code(tmp_path, capsys):
    hint = "; lower --dmax or --min-seg-len"
    for rows, flags, line in (
        (20, ["--dmax", "5", "--min-seg-len", "10"],
         "infeasible: 5 segments of length >= 10 need 50 points, signal has 20" + hint),
        # default flags: Dmax = 100 and a floor of 1
        (50, [], "infeasible: 100 segments of length >= 1 need 100 points, signal has 50" + hint),
        # no hint where lowering --dmax is not the fix
        (20, ["--dmax", "0"], "Dmax must be at least 1, got 0"),
    ):
        p = _write(tmp_path / "short.csv", "\n".join(str(float(v)) for v in range(rows)) + "\n")
        rc = main(["segment", "--input", p, *flags])
        assert rc == EXIT_INFEASIBLE
        assert capsys.readouterr().err == f"error: {line}\n"


def test_one_penalty_constant_is_an_input_error(tmp_path, capsys):
    p = _write(tmp_path / "x.csv", "\n".join(str(float(v % 7)) for v in range(40)) + "\n")
    for flag in ("--c1", "--c2"):
        rc = main(["segment", "--input", p, "--dmax", "10", flag, "1000"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--c1" in err and "--c2" in err


def test_bad_penalty_constant_is_an_input_error(tmp_path, capsys, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran before the penalty constants were checked")

    monkeypatch.setattr("kcpd.cli._solve", no_engine)
    p = _write(tmp_path / "x.csv", "\n".join(str(float(v % 7)) for v in range(40)) + "\n")
    for c1, c2, bad in (("-1", "1", "--c1"), ("nan", "1", "--c1"), ("1", "inf", "--c2")):
        rc = main(["segment", "--input", p, "--dmax", "10", "--c1", c1, "--c2", c2])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} must be a finite nonnegative number")
        assert err.count("\n") == 1


@pytest.mark.parametrize("algorithm", ["exact", "lowrank-binseg"])
def test_overflowing_kernel_exit_code(tmp_path, capsys, algorithm):
    p = _write(tmp_path / "big.csv", "\n".join(["30.0", "-30.0"] * 50) + "\n")
    rc = main(["segment", "--input", p, "--kernel", "exponential", "--no-scale", "--dmax", "5",
               "--algorithm", algorithm])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    # one line, naming the kernel, what overflowed and the cure
    what = {"exact": "segment cost", "lowrank-binseg": "landmark Gram matrix"}[algorithm]
    assert err.startswith(f"error: ExponentialKernel(delta=1.0) gives a non-finite {what}")
    assert "rescale the data" in err and err.count("\n") == 1


def test_segment_roundtrip_exact(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.normal(0, 1, 60), rng.normal(6, 1, 60)])
    inp = _write(tmp_path / "x.csv", "\n".join(repr(float(v)) for v in x) + "\n")
    out = str(tmp_path / "res.json")
    rc = main([
        "segment", "--input", inp, "--output", out,
        "--kernel", "linear", "--dmax", "12", "--c1", "5.0", "--c2", "5.0",
    ])
    assert rc == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["n"] == 120 and doc["q"] == 1
    assert doc["selection"]["d_hat"] == 2
    assert abs(doc["selection"]["change_points"][1] - 61) <= 1
    assert len(doc["per_d"]) == 12
    losses = [row["loss"] for row in doc["per_d"]]
    assert all(a >= b - 1e-9 for a, b in zip(losses, losses[1:]))
    assert not doc["selection"]["approximate_losses_warning"]
    assert 0 < doc["diagnostics"]["dp_cells_scanned"] <= sum(
        (min(e, 12) - 1) * (e - 1) for e in range(2, 121)
    )


def test_dmax_one_single_segment(tmp_path):
    x = np.arange(40.0)
    inp = _write(tmp_path / "x.csv", "\n".join(repr(float(v)) for v in x) + "\n")
    out = str(tmp_path / "r.json")
    rc = main(["segment", "--input", inp, "--output", out, "--kernel", "gaussian",
               "--dmax", "1", "--c1", "1.0", "--c2", "1.0", "--no-scale"])
    assert rc == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["per_d"] == [doc["per_d"][0]]
    assert doc["per_d"][0]["change_points"] == [1]
    want = segment_cost_direct(Signal(x), GaussianKernel(1.0), 0, 40)
    assert doc["per_d"][0]["loss"] == pytest.approx(want, rel=1e-9)


def test_too_short_to_scale_is_an_input_error(tmp_path, capsys):
    inp = _write(tmp_path / "x.csv", "1.0\n2.0\n4.0\n")
    argv = ["segment", "--input", inp, "--output", str(tmp_path / "r.json"),
            "--dmax", "1", "--c1", "1", "--c2", "1"]
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: need at least 4 time points") and "--no-scale" in err
    assert main(argv + ["--no-scale"]) == EXIT_OK


def test_deterministic_output_excluding_timing(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.normal(size=80)
    inp = _write(tmp_path / "x.csv", "\n".join(repr(float(v)) for v in x) + "\n")
    docs = []
    for run in range(2):
        out = str(tmp_path / f"r{run}.json")
        rc = main(["segment", "--input", inp, "--output", out, "--kernel", "gaussian",
                   "--dmax", "10", "--algorithm", "lowrank-binseg", "--landmarks", "16",
                   "--c1", "2.0", "--c2", "2.0"])
        assert rc == EXIT_OK
        doc = json.loads(open(out).read())
        doc.pop("timing")
        docs.append(json.dumps(doc, sort_keys=False))
    assert docs[0] == docs[1]


def test_lowrank_path_sets_warning_flag(tmp_path):
    rng = np.random.default_rng(4)
    x = rng.normal(size=60)
    x[30:] += 4
    inp = _write(tmp_path / "x.csv", "\n".join(repr(float(v)) for v in x) + "\n")
    out = str(tmp_path / "r.json")
    rc = main(["segment", "--input", inp, "--output", out, "--algorithm", "lowrank-binseg",
               "--landmarks", "12", "--dmax", "6", "--c1", "1.0", "--c2", "1.0"])
    assert rc == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["selection"]["approximate_losses_warning"]
    assert doc["diagnostics"]["lowrank"]["rank"] <= 12
    assert doc["diagnostics"]["dp_cells_scanned"] is None


def test_exact_path_warns_about_landmark_flags(tmp_path, capsys):
    x = np.arange(30.0)
    inp = _write(tmp_path / "x.csv", "\n".join(repr(float(v)) for v in x) + "\n")
    for count in ("7", "100"):
        # 100 is the default count, but given explicitly it is still ignored
        rc = main(["segment", "--input", inp, "--kernel", "linear", "--dmax", "3",
                   "--landmarks", count, "--c1", "0.1", "--c2", "0.1"])
        assert rc == EXIT_OK
        assert "ignored" in capsys.readouterr().err
    rc = main(["segment", "--input", inp, "--kernel", "linear", "--dmax", "3",
               "--c1", "0.1", "--c2", "0.1"])
    assert rc == EXIT_OK
    assert "ignored" not in capsys.readouterr().err


def test_simulate_then_segment(tmp_path):
    sig_path = str(tmp_path / "sim.csv")
    truth_path = str(tmp_path / "truth.json")
    rc = main(["simulate", "--output", sig_path, "--truth", truth_path, "--n", "600",
               "--num-changes", "5", "--jump", "6.0", "--seed", "11"])
    assert rc == EXIT_OK
    truth = json.loads(open(truth_path).read())
    assert len(truth["change_points"]) == 6

    out = str(tmp_path / "res.json")
    rc = main(["segment", "--input", sig_path, "--output", out, "--kernel", "linear",
               "--dmax", "20", "--c1", "8.0", "--c2", "8.0"])
    assert rc == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["selection"]["d_hat"] == 6
    got = doc["selection"]["change_points"]
    for want, have in zip(truth["change_points"], got):
        assert abs(want - have) <= 2


def test_full_pipeline_recovers_strong_jumps():
    # ten 5-sigma mean jumps, automatic penalty calibration, Gaussian kernel
    from kcpd import GaussianKernel, equally_spaced_changes, generate, mean_shift_specs
    from kcpd.cli import run_segment

    changes = equally_spaced_changes(2000, 10)
    levels = [[5.0 * (k % 2)] for k in range(11)]
    out = generate(2000, changes, mean_shift_specs(levels, sd=1.0), seed=17)
    doc = run_segment(out.signal, GaussianKernel(1.0), algorithm="exact", dmax=40)
    assert doc["selection"]["d_hat"] == 11
    got = doc["selection"]["change_points"]
    assert all(abs(g - w) <= 2 for g, w in zip(got, changes))


def test_simulate_determinism(tmp_path):
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    for p in (p1, p2):
        assert main(["simulate", "--output", p, "--n", "100", "--seed", "3",
                     "--kind", "folded", "--tracks", "2"]) == EXIT_OK
    assert open(p1).read() == open(p2).read()


def test_sum_kernel_cli(tmp_path):
    rng = np.random.default_rng(8)
    rows = ["%r,%r" % (float(a), float(b)) for a, b in rng.normal(size=(50, 2))]
    inp = _write(tmp_path / "x.csv", "\n".join(rows) + "\n")
    out = str(tmp_path / "r.json")
    rc = main(["segment", "--input", inp, "--output", out, "--kernel", "sum",
               "--sum-child", "gaussian", "--dmax", "5", "--c1", "1.0", "--c2", "1.0"])
    assert rc == EXIT_OK
    doc = json.loads(open(out).read())
    assert doc["kernel"]["family"] == "sum"
    assert len(doc["kernel"]["children"]) == 2


def test_build_kernel_families():
    for fam in _FAMILIES:  # the --kernel choices
        spec = build_kernel(fam, 1.0, 1.0, None, 1, "gaussian")
        assert spec.pair(0.5, 0.5) == pytest.approx(spec.pair(0.5, 0.5))
        assert _kernel_doc(spec)["family"] == fam
    with pytest.raises(InfeasibleError, match="'nope'"):
        build_kernel("nope", 1.0, 1.0, None, 1, "gaussian")
    # a sum of sums would recurse without end
    with pytest.raises(InfeasibleError, match="child family 'sum'"):
        build_kernel("sum", 1.0, 1.0, None, 2, "sum")


def test_bench_rows_and_budget(capsys):
    rows = run_bench([200, 400], ["exact", "lowrank-binseg"], p=16, dmax=5, seed=1)
    assert len(rows) == 4
    for r in rows:
        assert r["seconds"] > 0
        assert r["peak_table_bytes"] > 0
        # bench and segment run the same engine on the same signal
        doc = run_segment(_bench_signal(r["n"], 1), GaussianKernel(1.0), algorithm=r["algorithm"],
                          dmax=5, scale=False, landmarks=16, c1=1.0, c2=1.0)
        assert doc["diagnostics"]["peak_table_bytes"] == r["peak_table_bytes"]
    skipped = run_bench([400], ["exact"], dmax=5, seed=1, memory_budget_bytes=10)
    assert skipped == []
    # the skip check uses the byte count the cell reports
    for r in rows:
        budget = r["peak_table_bytes"] - 1
        assert run_bench([r["n"]], [r["algorithm"]], p=16, dmax=5, seed=1,
                         memory_budget_bytes=budget, log=lambda msg: None) == []


def test_bench_honours_min_seg_len():
    rows = run_bench([2000], ["exact", "lowrank-binseg"], dmax=12, ell=30)
    assert [r["algorithm"] for r in rows] == ["exact", "lowrank-binseg"]
    with pytest.raises(ValueError, match="length >= 30 need 30 points"):
        run_bench([10], ["exact"], dmax=3, ell=30)


def test_bench_cli_csv(tmp_path):
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--grid", "150,300", "--algorithms", "exact", "--dmax", "4",
               "--output", out])
    assert rc == EXIT_OK
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "algorithm,n,p,seconds,peak_table_bytes"
    assert len(lines) == 3


def test_bench_grid_lengths_fit_the_benchmark_signal(capsys):
    # the benchmark signal has 9 changes, so 10 points is the shortest length
    rc = main(["bench", "--grid", "5,300", "--algorithms", "exact", "--dmax", "3"])
    assert rc == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "grid length 5" in err and "9 changes" in err and "at least 10" in err
    assert "num_changes" not in err


def test_bench_grid_must_be_sorted():
    rc = main(["bench", "--grid", "300,100"])
    assert rc == EXIT_INFEASIBLE

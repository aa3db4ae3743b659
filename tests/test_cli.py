"""End-to-end command-line behavior: files in, JSON/CSV out, exit codes."""

import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kcpd import GaussianKernel, LinearKernel, Signal, SumKernel, cli, lowrank, segment_cost_direct
from kcpd.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    _FAMILIES,
    InputError,
    _bench_signal,
    _kernel_doc,
    build_kernel,
    load_csv,
    main,
    run_bench,
    run_segment,
    save_csv,
)

from conftest import quiet_collector


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


# (file bytes, whether np.loadtxt must be the parser that answers)
_CSV_CASES = [
    (b"1.5\n-0.0\n2e3\n.5\n", True),
    (b" 1.5 , 2 \n3,\t4\n", True),
    (b"x,y\n1,2\n3,4\n", True),
    (b"\xef\xbb\xbf1,2\n3,4\n", True),
    (b"\xef\xbb\xbfa,b\r\n1,2\r\n3,4\r\n", True),
    (b"t\r1\r2\r", True),
    (b"1\n\n2\n", True),
    (b"1_0\n2\n", False),
    (b"1\n   \n2\n", False),
    ("\u0661\n2\n".encode(), False),
    (b"#2\n1\n", True),
    (b"1\n#2\n", False),
    (b"1\n2#3\n", False),
    (b"1,2,\n3,4,\n", False),
    (b"1,2\n3\n", False),
    (b"1,2\n\n\n3\n", False),
    (b"", False),
    (b"x\n", False),
    (b"1\ninf\n", True),
    (b"1\nnan\n", True),
    (b"1\n1e400\n", True),
    # line breaks of str.splitlines inside a row, or blanks only np.loadtxt strips
    *[(f"1{c},3\n2{c},4\n".encode(), False) for c in "\x0b\x0c\x1c\x1d\x1e\x1f"],
    ("1\u2028,2\n".encode(), False),
]

# the error a case must end in, where the line it names matters
_CSV_ERRORS = {b"1,2\n\n\n3\n": "line 4: expected 2 columns, got 1"}


@pytest.mark.parametrize("data,fast", _CSV_CASES)
def test_load_csv_agrees_with_the_line_wise_parser(tmp_path, monkeypatch, data, fast):
    path = tmp_path / "in.csv"
    path.write_bytes(data)

    def outcome():
        try:
            arr = load_csv(str(path)).data
        except InputError as exc:
            return str(exc)
        return arr.shape, arr.tobytes()

    answered = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        arr = loadtxt(*args, **kwargs)
        answered.append(arr.size > 0)
        return arr

    monkeypatch.setattr(np, "loadtxt", spy)
    got = outcome()
    assert any(answered) == fast

    def refuse(*args, **kwargs):
        raise ValueError("line-wise parser only")

    monkeypatch.setattr(np, "loadtxt", refuse)
    assert got == outcome()
    if data in _CSV_ERRORS:
        assert got == f"{path}: {_CSV_ERRORS[data]}"


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


def _rows_text(sig):
    """The per-row formula save_csv once used: the reference for its blocks."""
    return "".join(",".join(map(repr, row)) + "\n" for row in sig.data.tolist())


# signed zero, subnormal, extremes, and values near repr's exponent switch
_CSV_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                    1e16, 9999999999999998.0, 1e-5, 0.1]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(q=st.sampled_from([1, 2, 3, 9]), n=st.integers(1, 4 * 7 + 6), data=st.data())
def test_save_csv_blocks_match_the_row_formula(tmp_path, monkeypatch, q, n, data):
    monkeypatch.setattr(cli, "_CSV_ROWS", 7)
    value = st.sampled_from(_CSV_EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    values = data.draw(st.lists(value, min_size=n * q, max_size=n * q))
    sig = Signal(np.array(values).reshape(n, q))
    path = tmp_path / "sig.csv"
    save_csv(sig, str(path))
    assert path.read_bytes() == _rows_text(sig).encode()
    assert load_csv(str(path)).data.tobytes() == sig.data.tobytes()


def test_save_csv_streams(tmp_path, monkeypatch):
    # one block's floats, format string and text come to about 3.3 times its
    # text; writing the whole signal at once would reach about 140 times
    rows = 1024
    monkeypatch.setattr(cli, "_CSV_ROWS", rows)
    sig = Signal(np.random.default_rng(0).normal(size=(16 * rows, 1)))
    block_text = len(_rows_text(Signal(sig.data[:rows])))
    tracemalloc.start()
    try:
        save_csv(sig, str(tmp_path / "sig.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * block_text


def test_infeasible_configuration_exit_code(tmp_path, capsys):
    hint = "; lower --dmax or --min-seg-len"
    for rows, flags, line in (
        (20, ["--dmax", "5", "--min-seg-len", "10"],
         "infeasible: 5 segments of length >= 10 need 50 points, signal has 20" + hint),
        # default flags: Dmax = 100 and a floor of 1
        (50, [], "infeasible: 100 segments of length >= 1 need 100 points, signal has 50" + hint),
        # no hint where lowering --dmax is not the fix
        (20, ["--dmax", "0"], "Dmax must be at least 1, got 0"),
        # the slope fit's own error
        (40, ["--dmax", "5"],
         "slope calibration needs Dmax >= 10 loss values, got 5; supply (c1, c2) explicitly instead"),
    ):
        p = _write(tmp_path / "short.csv", "\n".join(str(float(v)) for v in range(rows)) + "\n")
        rc = main(["segment", "--input", p, *flags])
        assert rc == EXIT_INFEASIBLE
        assert capsys.readouterr().err == f"error: {line}\n"


@pytest.mark.parametrize("algorithm", ["exact", "lowrank-binseg"])
def test_short_dmax_for_the_slope_fit_is_refused_before_the_engine(tmp_path, capsys, monkeypatch,
                                                                   algorithm):
    def unreached(*args, **kwargs):
        raise AssertionError("the run scaled or segmented a signal the slope fit refuses")

    monkeypatch.setattr("kcpd.cli.mad_scale", unreached)
    monkeypatch.setattr("kcpd.cli._solve", unreached)
    p = _write(tmp_path / "x.csv", "\n".join(str(float(v)) for v in range(40)) + "\n")
    out = tmp_path / "out.json"
    rc = main(["segment", "--input", p, "--dmax", "5", "--algorithm", algorithm, "--output", str(out)])
    assert rc == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "error: slope calibration needs Dmax >= 10 loss values, got 5; "
        "supply (c1, c2) explicitly instead\n")
    assert not out.exists()
    # fixed constants need no slope fit, so the same Dmax runs
    monkeypatch.undo()
    assert main(["segment", "--input", p, "--dmax", "5", "--algorithm", algorithm,
                 "--c1", "1", "--c2", "1", "--output", str(out)]) == EXIT_OK


# (flags, error message): malformed values a segment run refuses before it reads its input
_SEGMENT_FLAG_CASES = [
    ("--delta 0", "--delta must be a finite positive number, got 0.0"),
    ("--delta -1", "--delta must be a finite positive number, got -1.0"),
    ("--delta nan", "--delta must be a finite positive number, got nan"),
    ("--delta inf --kernel laplace", "--delta must be a finite positive number, got inf"),
    ("--delta 0 --kernel sum --sum-child exponential", "--delta must be a finite positive number, got 0.0"),
    ("--alpha 0 --kernel energy", "--alpha must be in (0, 2) for the energy kernel, got 0.0"),
    ("--alpha 2 --kernel energy", "--alpha must be in (0, 2) for the energy kernel, got 2.0"),
    ("--alpha nan --kernel sum --sum-child energy",
     "--alpha must be in (0, 2) for the energy kernel, got nan"),
    ("--x0 nan --kernel energy", "--x0 must be finite numbers for the energy kernel, got [nan]"),
    ("--x0 1e999 --kernel energy", "--x0 must be finite numbers for the energy kernel, got [inf]"),
    ("--landmarks 0 --algorithm lowrank-binseg", "--landmarks must be at least 1, got 0"),
    ("--landmarks -3", "--landmarks must be at least 1, got -3"),
]


@pytest.mark.parametrize("flags,message", _SEGMENT_FLAG_CASES,
                         ids=[case[0] for case in _SEGMENT_FLAG_CASES])
def test_segment_flag_values(tmp_path, capsys, monkeypatch, flags, message):
    def unreached(*args, **kwargs):
        raise AssertionError("the run went on past a malformed flag")

    monkeypatch.setattr("kcpd.cli.load_csv", unreached)
    monkeypatch.setattr("kcpd.cli._solve", unreached)
    out = tmp_path / "out.json"
    rc = main(["segment", "--input", str(tmp_path / "x.csv"), "--output", str(out), *flags.split()])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", ["--alpha 3", "--delta 0 --kernel linear",
                                   "--delta -1 --kernel energy", "--delta nan --kernel sum --sum-child linear",
                                   "--x0 nan --kernel sum --sum-child energy"])
def test_unused_kernel_flags_are_not_checked(tmp_path, flags):
    # --delta, --alpha and --x0 are checked only where the selected kernel uses them
    p = _write(tmp_path / "x.csv", "\n".join(str(float(v % 7)) for v in range(40)) + "\n")
    assert main(["segment", "--input", p, "--dmax", "10", *flags.split(),
                 "--output", str(tmp_path / "o.json")]) == EXIT_OK


@pytest.mark.parametrize("algorithm", ["exact", "lowrank-binseg"])
def test_segment_does_not_import_numpy_ma(tmp_path, algorithm):
    # numpy.ma costs about 1 MB and 12 ms; np.median's NaN check imports it
    p = _write(tmp_path / "x.csv", "\n".join(str(float(v % 7)) for v in range(40)) + "\n")
    code = ("import sys; from kcpd import cli; "
            f"rc = cli.main(['segment', '--input', {p!r}, '--dmax', '10', '--algorithm', {algorithm!r}, "
            f"'--output', {str(tmp_path / 'o.json')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr


# finite values from 1e-310 (subnormal) to 1e307, either sign, and zeros
_FUZZ_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, m, e: sign * m * 10.0**e,
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-310, 306)),
)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(q=st.integers(1, 2), n=st.integers(1, 48), data=st.data())
def test_segment_fuzz_ends_cleanly(tmp_path, q, n, data):
    """Any finite CSV: every kernel and engine exits 0, 2 or 3, warns
    nothing, and reports finite losses when it succeeds."""
    arr = np.array(data.draw(st.lists(_FUZZ_VALUES, min_size=n * q, max_size=n * q)))
    src = str(tmp_path / "fuzz.csv")
    save_csv(Signal(arr.reshape(n, q)), src)
    out = tmp_path / "fuzz.json"
    for kernel in _FAMILIES:
        for algorithm in ("exact", "lowrank-binseg"):
            for extra in ([], ["--no-scale"], ["--min-seg-len", "3"], ["--no-scale", "--min-seg-len", "3"]):
                argv = ["segment", "--input", src, "--output", str(out), "--dmax", "10",
                        "--kernel", kernel, "--algorithm", algorithm, *extra]
                if out.exists():
                    out.unlink()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc = main(argv)
                assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == [], argv
                assert rc in (EXIT_OK, EXIT_INPUT, EXIT_INFEASIBLE), argv
                if rc == EXIT_OK:
                    doc = json.loads(out.read_text())
                    assert all(math.isfinite(row["loss"]) for row in doc["per_d"]), argv


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
    # Dmax 10 gives the slope fit enough losses, so the engine runs and overflows
    p = _write(tmp_path / "big.csv", "\n".join(["30.0", "-30.0"] * 50) + "\n")
    rc = main(["segment", "--input", p, "--kernel", "exponential", "--no-scale", "--dmax", "10",
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


def test_segment_holds_one_copy_of_the_signal(tmp_path):
    # exact-2d-floor's shape, small. The input goes once it is scaled, so
    # the command's traced peak stays within the tables it counts, one
    # scaled copy of the signal (8 n q bytes), and one column (8 (n + 1)
    # bytes, less than 8 n q) for what the count leaves out: the argument
    # parser's objects, and the list mode's columns of the rows D >= 2
    # beside those the sweep makes when it switches to the dense scan. Holding the
    # input too would take 8 n q bytes more.
    n, q = 4000, 2
    inp, out = str(tmp_path / "var.csv"), str(tmp_path / "var.json")
    assert main(["simulate", "--output", inp, "--n", str(n), "--num-changes", "4",
                 "--kind", "variance", "--tracks", "2", "--seed", "1"]) == EXIT_OK
    argv = ["segment", "--input", inp, "--kernel", "laplace", "--dmax", "12",
            "--min-seg-len", "30", "--output", out]
    with quiet_collector():
        assert main(argv) == EXIT_OK  # first-call allocations stay out
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    counted = json.loads(open(out).read())["diagnostics"]["peak_table_bytes"]
    assert peak <= counted + 8 * n * q + 8 * (n + 1)


@pytest.mark.parametrize("algorithm", ["exact", "lowrank-binseg"])
@pytest.mark.parametrize("scale", [True, False])
def test_run_segment_leaves_the_signal_unchanged(tmp_path, algorithm, scale):
    # the library path scales a copy; the command's JSON is run_segment's
    sig = _bench_signal(300, 2)
    data, before = sig.data, sig.data.copy()
    doc = run_segment(sig, GaussianKernel(1.0), algorithm=algorithm, dmax=10, scale=scale)
    assert sig.data is data and data.tobytes() == before.tobytes()
    inp, out = str(tmp_path / "x.csv"), str(tmp_path / "x.json")
    save_csv(sig, inp)
    assert main(["segment", "--input", inp, "--output", out, "--algorithm", algorithm,
                 "--dmax", "10"] + ([] if scale else ["--no-scale"])) == EXIT_OK
    got = json.loads(open(out).read())
    assert {**got, "timing": None} == {**doc, "timing": None}


@pytest.mark.parametrize("algorithm", ["exact", "lowrank-binseg"])
def test_document_key_order(algorithm):
    # the contract fixes the order of the keys, not only their set
    doc = run_segment(_bench_signal(200, 3), GaussianKernel(1.0), algorithm=algorithm, dmax=10)
    assert list(doc) == ["version", "n", "q", "kernel", "algorithm", "dmax", "min_seg_len", "scaling",
                         "per_d", "selection", "diagnostics", "timing"]
    assert list(doc["diagnostics"]) == ["peak_table_bytes", "dp_cells_scanned", "lowrank"]


@pytest.mark.parametrize("algorithm", ["exact", "lowrank-binseg"])
def test_solve_returns_one_record_for_both_engines(algorithm):
    dmax = 6
    sol = cli._solve(_bench_signal(120, 4), GaussianKernel(1.0), algorithm, dmax, 2, 16, None)
    assert len(sol.losses) == dmax
    assert [sol.segmentation(d).d for d in range(1, dmax + 1)] == list(range(1, dmax + 1))
    diag = sol.diagnostics
    assert diag["peak_table_bytes"] > 0
    assert (diag["dp_cells_scanned"] is None) == (algorithm == "lowrank-binseg")
    assert (diag["lowrank"] is None) == (algorithm == "exact")


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


@pytest.mark.parametrize("algorithm", ["exact", "lowrank-binseg"])
def test_multi_chunk_runs_are_deterministic(tmp_path, monkeypatch, algorithm):
    # several Gram blocks and split-scan chunks: the same input gives the
    # same JSON outside timing
    monkeypatch.setattr(lowrank, "_GRAM_COLS", 1024)
    monkeypatch.setattr(lowrank, "_SPLIT_COLS", 1024)
    x = np.random.default_rng(5).normal(size=3 * 1024 + 7)
    x[1200:] += 1.5
    x[2500:] -= 3.0
    inp = _write(tmp_path / "x.csv", "\n".join(repr(float(v)) for v in x) + "\n")
    docs = []
    for run in range(2):
        out = str(tmp_path / f"r{run}.json")
        assert main(["segment", "--input", inp, "--output", out, "--algorithm", algorithm,
                     "--dmax", "20"]) == EXIT_OK
        doc = json.loads(open(out).read())
        doc.pop("timing")
        docs.append(json.dumps(doc))
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


def test_landmark_rule_flag(tmp_path, capsys):
    one, two, out = (str(tmp_path / name) for name in ("one.csv", "two.csv", "o.json"))
    for path, tracks in ((one, "1"), (two, "2")):
        assert main(["simulate", "--output", path, "--n", "200", "--num-changes", "3",
                     "--tracks", tracks]) == EXIT_OK
    seg = ["segment", "--dmax", "10", "--output", out]
    for flags, rule in (([], "grid"), (["--landmark-rule", "stride"], "stride")):
        assert main([*seg, "--input", one, "--algorithm", "lowrank-binseg", *flags]) == EXIT_OK
        assert json.loads(open(out).read())["diagnostics"]["lowrank"]["rule"] == rule
    capsys.readouterr()
    rc = main([*seg, "--input", two, "--algorithm", "lowrank-binseg", "--landmark-rule", "grid"])
    assert rc == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "error: grid landmarks need one coordinate per kernel block\n"
    assert main([*seg, "--input", one, "--landmark-rule", "stride"]) == EXIT_OK
    assert capsys.readouterr().err == "note: landmark options are ignored on the exact path\n"


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


# (flags, exit code, error message)
_SIMULATE_FLAG_CASES = [
    ("--n 0", EXIT_INPUT, "--n must be a positive integer, got 0"),
    ("--seed -1", EXIT_INPUT, "--seed must be a nonnegative integer, got -1"),
    ("--num-changes -1", EXIT_INPUT, "--num-changes must be a nonnegative integer, got -1"),
    ("--jump nan", EXIT_INPUT, "--jump must be a finite number, got nan"),
    ("--jump inf", EXIT_INPUT, "--jump must be a finite number, got inf"),
    ("--noise-sd -1", EXIT_INPUT, "--noise-sd must be a finite nonnegative number, got -1.0"),
    ("--noise-sd inf", EXIT_INPUT, "--noise-sd must be a finite nonnegative number, got inf"),
    # well-formed values the length cannot hold are infeasible
    ("--n 5 --num-changes 5", EXIT_INFEASIBLE, "cannot place 5 changes in 5 points"),
]


@pytest.mark.parametrize("flags,code,message", _SIMULATE_FLAG_CASES,
                         ids=[case[0] for case in _SIMULATE_FLAG_CASES])
def test_simulate_flag_values(tmp_path, capsys, flags, code, message):
    out = tmp_path / "s.csv"
    assert main(["simulate", "--output", str(out), *flags.split()]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# (flags, error message); each is refused before the warm-up runs
_BENCH_FLAG_CASES = [
    ('--grid ""', "--grid must be one or more signal lengths, got []"),
    ("--grid ,", "--grid must be one or more signal lengths, got []"),
    ('--algorithms ""', "--algorithms must be one or more algorithm names, got []"),
    ("--landmarks 0", "--landmarks must be at least 1, got 0"),
    ("--seed -1", "--seed must be a nonnegative integer, got -1"),
    ("--memory-budget -5", "--memory-budget must be a nonnegative integer, got -5"),
]


@pytest.mark.parametrize("flags,message", _BENCH_FLAG_CASES,
                         ids=[case[0] for case in _BENCH_FLAG_CASES])
def test_bench_flag_values(tmp_path, capsys, monkeypatch, flags, message):
    def unreached(*args, **kwargs):
        raise AssertionError("the run went on past a malformed flag")

    monkeypatch.setattr("kcpd.cli._solve", unreached)
    out = tmp_path / "bench.csv"
    rc = main(["bench", "--grid", "100", "--algorithms", "exact", "--dmax", "3",
               "--output", str(out), *shlex.split(flags)])
    assert rc == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_refuses_one_file_for_signal_and_truth(tmp_path, capsys):
    out = tmp_path / "s.csv"
    link = tmp_path / "link.json"
    link.symlink_to(out)
    for truth in (str(tmp_path / "." / "s.csv"), str(link)):
        rc = main(["simulate", "--n", "50", "--num-changes", "2", "--output", str(out),
                   "--truth", truth])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: --output and --truth name the same file")
        assert not out.exists()


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
        if fam == "sum":  # built per coordinate from its child family
            spec = SumKernel.per_coordinate([build_kernel("gaussian", 1.0, 1.0, None)])
        else:
            spec = build_kernel(fam, 1.0, 1.0, None)
        assert spec.pair(0.5, 0.5) == pytest.approx(spec.pair(0.5, 0.5))
        assert _kernel_doc(spec)["family"] == fam


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
    # the skip check's estimate bounds the byte count the cell reports
    capsys.readouterr()
    for r in rows:
        budget = r["peak_table_bytes"] - 1
        assert run_bench([r["n"]], [r["algorithm"]], p=16, dmax=5, seed=1,
                         memory_budget_bytes=budget) == []
        assert f"skipping {r['algorithm']} at n={r['n']}" in capsys.readouterr().err


def test_bench_honours_min_seg_len():
    rows = run_bench([2000], ["exact", "lowrank-binseg"], dmax=12, ell=30)
    assert [r["algorithm"] for r in rows] == ["exact", "lowrank-binseg"]
    with pytest.raises(ValueError, match="length >= 30 need 30 points"):
        run_bench([10], ["exact"], dmax=3, ell=30)


def test_bench_sqrt_landmark_rule(tmp_path):
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--grid", "150,300,1000", "--algorithms", "lowrank-binseg", "--p-rule", "sqrt",
               "--dmax", "4", "--output", out])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [150, 300, 1000]
    for r in rows:
        n = int(r[1])
        assert int(r[2]) == min(round(math.sqrt(n)), n)


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


def test_bench_refuses_an_unknown_algorithm(capsys):
    # the warm-up runs each algorithm first, so no cell is estimated or timed
    assert main(["bench", "--grid", "200", "--algorithms", "foo", "--dmax", "5"]) == EXIT_INFEASIBLE
    assert capsys.readouterr() == ("", "error: unknown algorithm 'foo'\n")


def test_bench_grid_must_be_sorted():
    rc = main(["bench", "--grid", "300,100"])
    assert rc == EXIT_INFEASIBLE

"""Command-line interface tests."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirikit.cli import build_parser, main


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"coeffs": [[0, 0], [0, 0], [1, 0]], "exact": True}))
    return str(path)


@pytest.fixture
def atom_file(tmp_path):
    path = tmp_path / "atom.json"
    path.write_text(json.dumps({"atoms": [{"angle": 0.0, "mass": 1.0}], "lebesgue": 0.0}))
    return str(path)


@pytest.fixture
def tuple_file(tmp_path):
    path = tmp_path / "tuple.json"
    payload = {"entries": [{"atoms": [{"angle": 0.0, "mass": 1.0}], "lebesgue": 0.0}]}
    path.write_text(json.dumps(payload))
    return str(path)


def test_eval_square(square_file, atom_file, capsys):
    code = main(["eval", "--function", square_file, "--measure", atom_file, "--n", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(2.0)
    assert payload["method"] == "decomposition"
    assert payload["order"] == 1


def test_eval_constant_vanishes(tmp_path, atom_file, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"coeffs": [[1, 0]], "exact": True}))
    code = main(["eval", "--function", str(path), "--measure", atom_file, "--n", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


def test_eval_writes_file(square_file, atom_file, tmp_path):
    out = tmp_path / "result.json"
    code = main(
        [
            "eval",
            "--function",
            square_file,
            "--measure",
            atom_file,
            "--n",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0)


def test_decompose(square_file, capsys):
    code = main(["decompose", "--function", square_file, "--atom", "0.0", "--n", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == [1.0, 0.0]
    assert payload["rhs"] == pytest.approx(1.0)
    assert payload["residual"] < 1e-9
    assert payload["g"]["coeffs"] == [[1.0, 0.0], [1.0, 0.0]]


def test_gram_csv(tuple_file, capsys):
    code = main(["gram", "--measures", tuple_file, "--degree", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0,1,2"
    assert lines[1].split(",")[0] == "1+0j"
    assert lines[2].split(",")[1] == "2+0j"
    assert lines[3].split(",")[1] == "1+0j"


def test_defects(square_file, tuple_file, capsys):
    code = main(
        [
            "defects",
            "--function",
            square_file,
            "--measures",
            tuple_file,
            "--max-order",
            "2",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["beta"][0] == pytest.approx(3.0)  # 1 + binom(2,1)
    assert "2" in payload["differences"]


def test_verify_monomial_exit_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "monomial",
            "--n",
            "3",
            "--trials",
            "1",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["max_residual"] <= 1e-12


def test_verify_failure_exit_one(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "shiftineq",
            "--trials",
            "5",
            "--seed",
            "1",
            "--tol",
            "-1",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False


def test_verify_csv_report(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        ["verify", "atomic", "--trials", "3", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("suite,trials,seed,passed")
    assert lines[1].startswith("atomic,3,7,1")


def test_verify_report_determinism(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        code = main(
            ["verify", "szego", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_malformed_function_exits_two(tmp_path, atom_file, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["eval", "--function", str(path), "--measure", atom_file, "--n", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_two(atom_file):
    code = main(
        ["eval", "--function", "/nonexistent.json", "--measure", atom_file, "--n", "1"]
    )
    assert code == 2


def test_bad_quad_flag_exits_two(square_file, atom_file):
    code = main(
        [
            "eval",
            "--function",
            square_file,
            "--measure",
            atom_file,
            "--n",
            "1",
            "--quad",
            "not,a,spec",
        ]
    )
    assert code == 2


def test_order_zero_rejected_with_exit_two(square_file, atom_file):
    code = main(
        ["eval", "--function", square_file, "--measure", atom_file, "--n", "0"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["verify", "atomic", "--n", "3"], "orders"),
        (["verify", "kernel", "--quad", "16,16"], "quadrature spec"),
        (["verify", "all", "--n", "2"], "--n"),
        (["verify", "douglas", "--n", "0"], "orders"),
        (["verify", "douglas", "--trials", "-3"], "trial count"),
        (["verify", "douglas", "--tol", "nan"], "tolerance"),
        (["verify", "douglas", "--seed", "-1"], "seed"),
    ],
    ids=[f"argv{i}" for i in range(7)],
)
def test_verify_rejects_ignored_or_invalid_arguments(argv, named, capsys):
    # the message names the argument at fault
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["missing/report.json", "."])
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--function", "square", "--measure", "atom", "--n", "1"],
        ["gram", "--measures", "tuple", "--degree", "2"],
        ["verify", "monomial", "--trials", "1"],
        ["verify", "all", "--trials", "0"],
    ],
    ids=["eval", "gram", "verify", "verify-all"],
)
def test_an_unwritable_out_path_exits_two(argv, target, square_file, atom_file,
                                          tuple_file, tmp_path, capsys):
    # a missing directory or a directory itself cannot take the report,
    # and main refuses it before any work: verify prints no status line
    files = {"square": square_file, "atom": atom_file, "tuple": tuple_file}
    out = str(tmp_path / target)
    assert main([files.get(arg, arg) for arg in argv] + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_verify_all_accepts_quad(capsys):
    argv = ["verify", "all", "--quad", "96,256", "--trials", "1"]
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)) == 11


def test_eval_forced_quadrature_at_high_order(square_file, atom_file, capsys):
    code = main(
        [
            "eval",
            "--function",
            square_file,
            "--measure",
            atom_file,
            "--n",
            "200",
            "--force-quadrature",
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


@pytest.mark.parametrize(
    "measure",
    [
        '{"atoms": [{"angle": 0.0, "mass": NaN}], "lebesgue": 0.0}',
        '{"atoms": [], "lebesgue": NaN}',
        '{"atoms": [{"angle": Infinity, "mass": 1.0}], "lebesgue": 0.0}',
    ],
)
def test_eval_non_finite_measure_exits_two(measure, square_file, tmp_path, capsys):
    path = tmp_path / "measure.json"
    path.write_text(measure)
    code = main(["eval", "--function", square_file, "--measure", str(path), "--n", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_verify_kernel_reports_where_its_closed_form_overflows(capsys):
    # orders 92-97 overflow to an infinite gap, which fails the check;
    # from 98 the closed form itself no longer fits a float
    assert main(["verify", "kernel", "--n", "97", "--trials", "1"]) == 1
    assert json.loads(capsys.readouterr().out)["max_residual"] == "inf"
    assert main(["verify", "kernel", "--n", "98", "--trials", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: kernel: the closed-form local Bergman kernel of order 98 "
        "exceeds the float range\n"
    )


def test_verify_kernel_overflow_exits_two(capsys):
    # (n+1)! (n-1)! no longer converts to a float at n = 100
    assert main(["verify", "kernel", "--n", "100", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "suite, order, highest",
    [("tmap", 20, 13), ("shiftineq", 20, 12), ("douglas", 150, 12)],
)
def test_verify_rejects_orders_beyond_the_drawn_degree(suite, order, highest, capsys):
    assert main(["verify", suite, "--n", str(order), "--trials", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"order {order} is above {highest}" in err


def test_eval_overflowing_result_exits_two(tmp_path, capsys):
    # 1e308 * binom(1, 1) |1e100|^2 overflows to inf, which JSON cannot hold
    function = tmp_path / "f.json"
    function.write_text(json.dumps({"coeffs": [[0, 0], [1e100, 0]], "exact": True}))
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps({"atoms": [], "lebesgue": 1e308}))
    argv = ["eval", "--function", str(function), "--measure", str(measure), "--n", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: result is not finite")


def _forced_eval(square_file, atom_file, *extra):
    argv = ["eval", "--function", square_file, "--measure", atom_file,
            "--n", "1", "--force-quadrature", *extra]
    return main(argv)


def test_eval_reports_the_chosen_grid(square_file, atom_file, capsys):
    # z^2 at order 1: radial 2 * max(2, 4), angular 2 * max(2 * 1 + 1, 8)
    assert _forced_eval(square_file, atom_file) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "quadrature"
    assert payload["value"] == pytest.approx(2.0, rel=1e-12)
    assert payload["quad"] == {"radial": 8, "angular": 16}


def test_eval_reports_the_given_grid(square_file, atom_file, capsys):
    assert _forced_eval(square_file, atom_file, "--quad", "96,256") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quad"] == {"radial": 96, "angular": 256}


def test_exact_route_json_has_no_grid(square_file, atom_file, capsys):
    assert main(["eval", "--function", square_file, "--measure", atom_file, "--n", "1"]) == 0
    assert "quad" not in json.loads(capsys.readouterr().out)


def test_decompose_reports_its_grid(square_file, capsys):
    assert main(["decompose", "--function", square_file, "--atom", "0.0", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["quad"]["radial"] == 8
    argv = ["decompose", "--function", square_file, "--atom", "0.0", "--n", "2",
            "--quad", "96,256"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["quad"]["angular"] == 256


def test_verify_kernel_at_order_90(capsys):
    # the kernel reaches 2e303 on the point grid, so the check is relative;
    # its series terms cancel by about 1e22, so they are summed exactly
    assert main(["verify", "kernel", "--n", "90", "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["max_residual"] <= 1e-10


def test_the_environment_does_not_move_any_number(
    square_file, atom_file, tmp_path, capsys, monkeypatch
):
    # only --quad and a spec argument pick a grid, never the environment
    outputs = []
    for env in (None, "16,16"):
        if env is not None:
            monkeypatch.setenv("DIRIKIT_QUAD_DEFAULT", env)
        assert _forced_eval(square_file, atom_file) == 0
        report = tmp_path / f"szego-{len(outputs)}.json"
        assert main(["verify", "szego", "--seed", "3", "--out", str(report)]) == 0
        outputs.append((capsys.readouterr().out, report.read_bytes()))
    assert outputs[0] == outputs[1]


def _cli_exit(command, files, *extra):
    """Exit code and stderr of ``main`` on ``command``, given one
    ``--OPTION PATH`` pair per entry of ``files`` (option -> file
    contents) and then the ``extra`` arguments."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for option, text in files.items():
            path = Path(tmp) / f"{option}.json"
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
            argv += [f"--{option}", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + list(extra))
    return code, err.getvalue()


def _eval_exit(function_text, measure_text):
    """Exit code and stderr of ``eval --n 1`` on the given file contents."""
    return _cli_exit(
        "eval", {"function": function_text, "measure": measure_text}, "--n", "1"
    )


ATOM = '{"atoms": [{"angle": 0.0, "mass": 1.0}], "lebesgue": 0.0}'


@pytest.mark.parametrize(
    "function",
    [
        '{"coeffs": []}',
        '{"coeffs": [[NaN, 0]]}',
        '{"coeffs": [[1, Infinity]]}',
        '{"coeffs": [[1, 0, 2]]}',
        '{"coeffs": [[1, 0], [2]]}',
        '{"coeffs": [[[1, 0], 0]]}',
        '{"coeffs": [1, 2]}',
        '{"coeffs": [["1", "0"]]}',
        '{"coeffs": "10"}',
        '{"coeffs": null}',
        '{"coeffs": [[1e400, 0]]}',
        pytest.param('{"coeffs": [[1' + "0" * 400 + ', 0]]}', id="huge-int"),
        '{"exact": true}',
        '{"coeffs": [[1, 0]], "exact": "false"}',
        '{"coeffs": [[true, false]]}',
        '{"coeffs": [[1, 0], [0, true]]}',
        '[[1, 0]]',
        '"coeffs"',
        b'{"coeffs": [[1, 0]], "exact": "\xff"}',
    ],
)
def test_malformed_function_files_exit_two(function):
    code, err = _eval_exit(function, ATOM)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "measure",
    ['[]', '{"atoms": [[0, 1]]}', '{"atoms": [{"angle": 0}]}',
     pytest.param('{"lebesgue": 1' + "0" * 400 + "}", id="huge-int"),
     '{"atoms": 3}', '{"atoms": [{"angle": 0, "mass": true}]}',
     '{"lebesgue": "1.5"}', '{"atoms": [{"angle": "0.3", "mass": 1}]}'],
)
def test_malformed_measure_files_exit_two(measure):
    code, err = _eval_exit('{"coeffs": [[0, 0], [1, 0]]}', measure)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, files, extra, key",
    [
        ("eval", {"function": '{"coeffs": [[0, 0], [1, 0]]}', "measure": '{"lebesgu": 1.0}'},
         ["--n", "1"], "lebesgu"),
        ("eval", {"function": '{"coeffs": [[0, 0], [1, 0]]}',
                  "measure": '{"atoms": [{"angle": 0, "mass": 1, "weight": 2}]}'},
         ["--n", "1"], "weight"),
        ("eval", {"function": '{"coeffs": [[0, 0], [1, 0]], "exakt": false}',
                  "measure": ATOM}, ["--n", "1"], "exakt"),
        ("gram", {"measures": '{"entries": [%s], "entry": []}' % ATOM},
         ["--degree", "2"], "entry"),
        ("gram", {"measures": '{"entries": [{"lebesgue": 1, "mass": 2}]}'},
         ["--degree", "2"], "mass"),
    ],
    ids=["measure", "atom", "function", "tuple", "tuple-entry"],
)
def test_an_unknown_json_key_exits_two_naming_it(command, files, extra, key):
    # a misspelt key would otherwise be read as a missing one: the
    # measure {"lebesgu": 1.0} as the zero measure
    code, err = _cli_exit(command, files, *extra)
    assert code == 2
    assert err.startswith("error:") and f"unknown key {key!r}" in err
    assert "Traceback" not in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["coeffs", "exact", "atoms", "angle",
                                       "mass", "lebesgue"]), inner, max_size=4),
    max_leaves=12,
)


@given(json_values, json_values)
@settings(max_examples=100, deadline=None)
def test_any_function_and_measure_file_ends_in_a_result_or_an_error(function, measure):
    # an exception escaping main would be a traceback for the user
    code, err = _eval_exit(json.dumps(function), json.dumps(measure))
    assert code in (0, 2)
    assert (err == "") if code == 0 else err.startswith("error:")


@given(st.lists(st.lists(st.floats() | st.integers() | st.text(max_size=3),
                         max_size=3), max_size=4))
@settings(max_examples=100, deadline=None)
def test_any_coefficient_list_ends_in_a_result_or_an_error(coeffs):
    code, err = _eval_exit(json.dumps({"coeffs": coeffs}), ATOM)
    assert code in (0, 2)
    assert (err == "") if code == 0 else err.startswith("error:")


ONE_ATOM_TUPLE = '{"entries": [%s]}' % ATOM


@pytest.mark.parametrize(
    "command, files, extra",
    [
        # |1e200|^2 overflows the quadratic form of beta_0
        ("defects", {"function": '{"coeffs": [[1e200, 0], [1e200, 0], [1, 0]]}',
                     "measures": ONE_ATOM_TUPLE}, []),
        # the Gram entries of a mass of 1e308 overflow to inf
        ("gram", {"measures": ONE_ATOM_TUPLE.replace('"mass": 1.0', '"mass": 1e308')},
         ["--degree", "3"]),
        # numpy refuses the 142 PiB section at once, allocating nothing
        ("gram", {"measures": ONE_ATOM_TUPLE}, ["--degree", "100000000"]),
    ],
    ids=["defects-overflow", "gram-inf", "gram-beyond-memory"],
)
def test_an_overflowing_result_exits_two(command, files, extra):
    code, err = _cli_exit(command, files, *extra)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


HUGE = '{"coeffs": [[1e200, 0], [1e200, 0], [1, 0]]}'
#: f(1) = 3.4e308 is beyond the float range, though each coefficient is not.
BEYOND = '{"coeffs": [[1.7e308, 0], [1.7e308, 0]]}'


@pytest.mark.parametrize(
    "command, files, extra, message",
    [
        # the quotient at the atom has g_0 = 1e200, squared one order down
        ("eval", {"function": HUGE, "measure": ATOM}, ["--n", "1"],
         "error: overflow in the order-0 coefficient series: "
         "|c_0|^2 exceeds the float range\n"),
        # the quadratic form for beta_0 = ||f||^2 squares a_0 = 1e200
        ("defects", {"function": HUGE, "measures": ONE_ATOM_TUPLE}, [],
         "error: overflow: beta_0 = ||z^0 f||^2 exceeds the float range\n"),
        ("eval", {"function": HUGE, "measure": ATOM},
         ["--n", "1", "--force-quadrature"],
         "error: overflow: |h|^2 exceeds the float range at node "),
        # each square of f' = 1e153 (1 + 2z + 3z^2) is finite, their sums are not
        ("eval", {"function": '{"coeffs": [[1e153, 0], [1e153, 0], [1e153, 0], '
                              '[1e153, 0]]}', "measure": ATOM},
         ["--n", "1", "--force-quadrature"],
         "error: overflow: the order-1 energy on the 8x16 grid exceeds the float "
         "range\n"),
        # each coefficient is finite, but 2 * 0.9e308 in f' is not
        ("eval", {"function": '{"coeffs": [[0, 0], [1e308, 0], [0.9e308, 0], '
                              '[0.5e308, 0]]}', "measure": ATOM},
         ["--n", "1", "--force-quadrature"],
         "error: overflow: the coefficients of the order-1 derivative exceed the "
         "float range\n"),
        # f(lam) itself overflows, on the exact route of both commands
        ("eval", {"function": BEYOND, "measure": ATOM}, ["--n", "1"],
         "error: the value of f at lam=1.000000+0.000000j exceeds the float range\n"),
        # f(-1) = 0: of two atoms, the one where f overflows is named
        ("eval", {"function": BEYOND, "measure": ATOM.replace(
            "[{", '[{"angle": 3.141592653589793, "mass": 1.0}, {')}, ["--n", "1"],
         "error: the value of f at lam=1.000000+0.000000j exceeds the float range\n"),
        ("decompose", {"function": BEYOND}, ["--atom", "0", "--n", "1"],
         "error: the value of f at lam=1.000000+0.000000j exceeds the float range\n"),
        # as a truncation its radial samples overflow, and that is divergence
        ("decompose", {"function": BEYOND[:-1] + ', "exact": false}'},
         ["--atom", "0", "--n", "1"],
         "error: no boundary value at lam=1.000000+0.000000j: "
         "f diverges along the radius\n"),
        # exp(i nan) and exp(i inf) are NaN points, not off-range values
        ("decompose", {"function": BEYOND}, ["--atom", "nan", "--n", "1"],
         "error: boundary point must lie on the unit circle\n"),
        ("decompose", {"function": BEYOND}, ["--atom", "inf", "--n", "1"],
         "error: boundary point must lie on the unit circle\n"),
    ],
    ids=["eval-exact", "defects", "eval-quadrature", "eval-quadrature-sums",
         "eval-quadrature-derivative", "eval-beyond", "eval-beyond-two-atoms",
         "decompose-beyond", "decompose-beyond-truncation", "decompose-nan", "decompose-inf"],
)
def test_an_overflowing_square_is_named_without_a_warning(command, files, extra, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _cli_exit(command, files, *extra)
    assert code == 2
    assert err.startswith(message)


def test_the_four_field_quad_form_exits_two(square_file, capsys):
    argv = ["decompose", "--function", square_file, "--atom", "0.0", "--n", "2",
            "--quad", "32,64,0,0"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: bad --quad value: quadrature spec must be 'radial,angular'\n"
    )


tuple_values = json_values | st.lists(json_values, max_size=3).map(
    lambda entries: {"entries": entries}
)
#: Short text, so no parse yields a grid too large to sample quickly,
#: next to well-formed pairs and the four-field form.
quad_texts = (
    st.text(max_size=5)
    | st.text(alphabet="0123456789,.-+e ", max_size=5)
    | st.tuples(st.integers(-3, 40), st.integers(-3, 80)).map("{0[0]},{0[1]}".format)
    | st.just("32,64,0,0")
)


def _result_or_error(code, err):
    assert code in (0, 2)
    assert (err == "") if code == 0 else err.startswith("error:")


@given(tuple_values, st.integers(-1, 4))
@settings(max_examples=40, deadline=None)
def test_any_measure_tuple_file_ends_in_a_gram_section_or_an_error(measures, degree):
    _result_or_error(*_cli_exit(
        "gram", {"measures": json.dumps(measures)}, "--degree", str(degree)
    ))


@given(json_values, tuple_values)
@settings(max_examples=40, deadline=None)
def test_any_function_and_tuple_file_ends_in_a_defect_report_or_an_error(
    function, measures
):
    _result_or_error(*_cli_exit(
        "defects",
        {"function": json.dumps(function), "measures": json.dumps(measures)},
        "--max-order", "3",
    ))


@given(json_values | st.just({"coeffs": [[0, 0], [0, 0], [1, 0]]}), quad_texts)
@example(function={"coeffs": [[0, 0], [0, 0], [1, 0]]}, quad="--")
@settings(max_examples=60, deadline=None)
def test_any_function_file_and_quad_text_end_in_a_certificate_or_an_error(
    function, quad
):
    # --quad=TEXT, so a text that starts with '-' is not taken for an option
    _result_or_error(*_cli_exit(
        "decompose", {"function": json.dumps(function)},
        "--atom", "0.5", "--n", "1", f"--quad={quad}",
    ))


def _value_options():
    """(command, option) for every option of every subcommand that takes
    a value."""
    (commands,) = (
        action.choices for action in build_parser()._actions
        if isinstance(action.choices, dict)
    )
    return [
        (command, option)
        for command, parser in commands.items()
        for action in parser._actions if action.nargs != 0
        for option in action.option_strings if option.startswith("--")
    ]


@pytest.mark.parametrize("command,option", _value_options())
def test_an_option_written_with_a_double_dash_value_exits_two(
    command, option, square_file, atom_file, tuple_file, capsys
):
    # argparse hands [] to --opt=--; a full command line first, so only
    # that option is at fault
    complete = {
        "eval": ["--function", square_file, "--measure", atom_file, "--n", "1"],
        "decompose": ["--function", square_file, "--atom", "0.5", "--n", "1"],
        "gram": ["--measures", tuple_file, "--degree", "2"],
        "defects": ["--function", square_file, "--measures", tuple_file],
        "verify": ["kernel", "--trials", "1"],
    }
    assert main([command] + complete[command] + [f"{option}=--"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: argument {option}: expected one argument\n"

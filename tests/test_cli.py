"""CLI adapter tests: schemas, exit codes, golden outputs."""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pencilred as pr
from pencilred import cli, orbits
from helpers import rand_pencil, rand_unimodular

WORKED_PENCIL = {
    "n": 4,
    "A": [["0", "0", "1", "0"], ["0", "1", "0", "0"],
          ["1", "0", "0", "0"], ["0", "0", "0", "-1"]],
    "B": [["0", "1", "0", "0"], ["1", "0", "0", "0"],
          ["0", "0", "0", "-1"], ["0", "0", "-1", "0"]],
}


def run_cli(*args, payload=None):
    cmd = [sys.executable, "-m", "pencilred.cli"] + list(args)
    if payload is not None:
        cmd += ["--input-json", json.dumps(payload)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_invariant_worked_pencil():
    res = run_cli("invariant", payload=WORKED_PENCIL)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["form"]["coeffs"] == ["1", "0", "0", "0", "1"]
    assert out["form"]["degree"] == 4


def test_python_m_pencilred_runs_cli_main(capsys):
    """`python -m pencilred` runs from a checkout, with src on the path, and
    prints what cli.main prints."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    args = ["invariant", "--input-json", json.dumps(WORKED_PENCIL)]
    res = subprocess.run([sys.executable, "-m", "pencilred"] + args,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert cli.main(args) == 0 == res.returncode
    assert res.stdout == capsys.readouterr().out


def test_reduce_already_reduced():
    p = {"n": 4,
         "A": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
               ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
         "B": [["0", "0", "0", "0"], ["0", "1", "0", "0"],
               ["0", "0", "2", "0"], ["0", "0", "0", "3"]]}
    res = run_cli("reduce", payload=p)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["g"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0],
                        [0, 0, 0, 1]]
    assert out["reduced"] == {"n": 4, "A": p["A"], "B": p["B"]}


def test_orbit_invalid_datum_exit2():
    payload = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "1"]},
               "alpha": ["0", "1", "0", "0"], "z": "2"}
    res = run_cli("orbit", payload=payload)
    assert res.returncode == 2
    err = json.loads(res.stdout)
    assert err["error"]["type"] == "InvalidDatum"


def test_datum_is_validated_once_per_command(monkeypatch):
    """The divisor commands check the norm equation once, in
    datum_from_divisor; orbit input at even n is checked only by the
    invariant-form comparison, and an invalid datum still exits 2 with the
    norm-equation error.  At odd n, which Pencil rejects with exit 1, the
    norm equation is answered first, as before."""
    calls = []
    validate = orbits.validate_datum
    monkeypatch.setattr(orbits, "validate_datum",
                        lambda d: calls.append(d) or validate(d))

    def run(args, payload):
        calls.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--precision", "64"] + args
                            + ["--input-json", json.dumps(payload)])
        return code, out.getvalue(), len(calls)

    for args in (["divisor-orbit"], ["norm-check"],
                 ["height-check", "--cutoff-X", "4", "--delta", "0.5"]):
        assert run(args, _DIVISOR)[::2] == (0, 1), args
    error = {"type": "InvalidDatum", "message": "z^2 N(alpha) != f0^(n+1)"}
    datum = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "1"]},
             "alpha": ["0", "1", "0", "0"], "z": "1"}
    assert run(["orbit"], datum)[::2] == (0, 0)
    code, out, count = run(["orbit"], dict(datum, z="2"))
    assert (code, count) == (2, 0)
    assert json.loads(out)["error"] == error
    cubic = {"f": {"degree": 3, "coeffs": ["1", "0", "0", "1"]},
             "alpha": ["1", "0", "0"], "z": "1"}
    assert run(["orbit"], cubic) == (1, "", 1)
    code, out, count = run(["orbit"], dict(cubic, z="2"))
    assert (code, count) == (2, 1)
    assert json.loads(out)["error"] == error


def test_orbit_worked():
    payload = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "1"]},
               "alpha": ["0", "1", "0", "0"], "z": "1"}
    res = run_cli("orbit", payload=payload)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["pencil"] == WORKED_PENCIL
    assert out["one_bar"] == ["1", "0", "0", "0"]


def test_divisor_orbit_integralizes():
    payload = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]},
               "U": {"degree": 1, "coeffs": ["1", "-1"]}, "w": "2"}
    res = run_cli("divisor-orbit", payload=payload)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["datum"]["z"] == "1/2"
    assert out["integralized"] is True
    assert all("/" not in x for row in out["integral_pencil"]["A"]
               for x in row)


def test_norm_check():
    payload = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]},
               "U": {"degree": 1, "coeffs": ["1", "-1"]}, "w": "2"}
    res = run_cli("--precision", "160", "norm-check", payload=payload)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["agree"] is True
    assert out["formula"].startswith("0.888073833977")


def test_height_check():
    payload = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]},
               "U": {"degree": 1, "coeffs": ["1", "-1"]}, "w": "2"}
    res = run_cli("height-check", "--cutoff-X", "4", "--delta", "0.5",
                  payload=payload)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["prop_bound"]["holds"] is True
    assert out["vector_length_bound"]["holds"] is True


def test_precision_floor():
    for bits in ("-8", "0", "4"):
        res = run_cli("--precision", bits, "covariant", payload=WORKED_PENCIL)
        assert res.returncode == 2
        assert json.loads(res.stdout)["error"]["type"] == "RangeError"
    res = run_cli("--precision", "64", "covariant", payload=WORKED_PENCIL)
    assert res.returncode == 0
    assert json.loads(res.stdout)["n"] == 4


def test_covariant_schema():
    res = run_cli("covariant", payload=WORKED_PENCIL)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["n"] == 4 and "error_bound" in out
    assert out["entries"][0][0].startswith("1.0")


def test_sample_csv_and_json():
    res = run_cli("sample", "--n", "4", "--box-bound", "3", "--count", "12",
                  "--seed", "9", "--eps-list", "0.8,0.1", "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any("seed=9" in l for l in meta)
    assert any("measure=" in l for l in meta)
    assert data[0] == "eps,frequency,count"
    assert len(data) == 3
    res2 = run_cli("sample", "--n", "4", "--box-bound", "3", "--count", "12",
                   "--seed", "9", "--eps-list", "0.8,0.1")
    out = json.loads(res2.stdout)
    assert out["metadata"]["measure"].startswith("entries uniform")
    assert len(out["small_vector_frequency"]) == 2


@pytest.mark.parametrize("eps", ["nan", "inf", "1e400", "0", "-1",
                                 "0.5,nan"])
def test_sample_rejects_eps_not_finite_and_positive(eps, monkeypatch,
                                                    capsys):
    """An eps that is not finite and > 0 is a RangeError (exit 2, JSON error
    object), raised before any pencil is sampled: a NaN or infinite eps
    would be written as NaN or Infinity, which is not JSON."""
    sampled = []
    monkeypatch.setattr(cli, "sample_pencils",
                        lambda *args: sampled.append(args))
    assert cli.main(["sample", "--count", "2", "--eps-list=" + eps]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "RangeError" and not sampled


@pytest.mark.parametrize("option, value", [
    ("--box-bound", "-2"), ("--count", "0"), ("--count", "-1"),
    ("--n", "3"), ("--n", "0"), ("--n", "-2")])
def test_sample_rejects_out_of_range_arguments(option, value, monkeypatch,
                                               capsys):
    """A negative --box-bound, a --count below 1 or an --n that is not a
    positive even integer is a RangeError (exit 2, JSON error object),
    raised before any pencil is sampled."""
    sampled = []
    monkeypatch.setattr(cli, "sample_pencils",
                        lambda *args: sampled.append(args))
    assert cli.main(["sample", "--count", "2", option, value]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "RangeError" and option in err["message"]
    assert not sampled


@pytest.mark.parametrize("delta", ["1.5", "0.25", "nan"])
def test_reduce_rejects_delta_lll_outside_range(delta, monkeypatch, capsys):
    """A --delta-lll outside (0.25, 1) is a RangeError (exit 2, JSON error
    object), raised before the input is read or any covariant is built."""
    work = []
    monkeypatch.setattr(cli, "_read_input", lambda *args: work.append(args))
    monkeypatch.setattr(cli, "lll_reduce", lambda *args, **kw: work.append(args))
    assert cli.main(["reduce", "--delta-lll", delta,
                     "--input-json", json.dumps(WORKED_PENCIL)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "RangeError" and not work


def test_reduce_skewed_pencil_exit0(capsys):
    """A skewed pencil whose covariant rationalized at the precision is not
    positive definite still reduces (exit 0), with g exact."""
    rng = random.Random(9)
    p = pr.act(rand_unimodular(rng, 4, ops=80, coeff=9),
               rand_pencil(rng, 4, 3))
    payload = {"n": 4, "A": [[str(x) for x in row] for row in p.A],
               "B": [[str(x) for x in row] for row in p.B]}
    assert cli.main(["--precision", "128", "reduce",
                     "--input-json", json.dumps(payload)]) == 0
    out = json.loads(capsys.readouterr().out)
    g = pr.UnimodularMatrix(4, tuple(tuple(r) for r in out["g"]))
    reduced = pr.act(g, p)
    assert out["reduced"] == {
        "n": 4, "A": [[str(x) for x in row] for row in reduced.A],
        "B": [[str(x) for x in row] for row in reduced.B]}


def test_density_command():
    res = run_cli("density", "--n", "4", "--delta", "0.3",
                  "--cutoff-X-list", "10,100", "--count", "25", "--seed", "4")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert [row["X"] for row in out["rows"]] == [10.0, 100.0]


def test_parse_failure_exit1():
    res = run_cli("invariant", payload={"n": 4})
    assert res.returncode == 1
    f = {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]}
    U = {"degree": 1, "coeffs": ["1", "-1"]}
    for args, payload in (
            (("covariant",), {"n": 4, "A": 5, "B": 5}),
            (("orbit",), {"f": f, "alpha": ["0", "1", "0", "0"],
                          "z": "1/0"}),
            (("norm-check",), {"f": f, "U": U, "w": "1/0"}),
            (("height-check", "--cutoff-X", "4"), {"f": f, "U": U,
                                                   "w": "1/0"}),
            (("invariant",), [1, 2]),
            (("height-check", "--cutoff-X", "inf"), {"f": f, "U": U}),
            (("density", "--cutoff-X-list", "inf", "--count", "1"), None),
            (("density", "--cutoff-X-list", "1e400", "--count", "1"), None)):
        res = run_cli(*args, payload=payload)
        assert res.returncode == 1, (args, res.stderr)
        assert res.stderr.startswith("input error:")
        assert "Traceback" not in res.stderr


def test_unknown_flag_rejected():
    res = run_cli("sample", "--does-not-exist", "1")
    assert res.returncode == 2  # argparse exits 2 on bad flags


def test_parser_built_once(capsys):
    """In-process calls share one parser and answer as with a fresh one:
    stdout and exit code of each call match a run that rebuilds the parser
    before every call."""
    quartic = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]},
               "U": {"degree": 1, "coeffs": ["1", "-1"]}, "w": "2"}
    calls = [
        ["height-check", "--cutoff-X", "4", "--delta", "0.5",
         "--input-json", json.dumps(quartic)],
        ["sample", "--n", "4", "--count", "6", "--seed", "3",
         "--eps-list", "0.5"],
        ["--precision", "32", "covariant", "--input-json",
         json.dumps(WORKED_PENCIL)],
        ["invariant", "--input-json", json.dumps(WORKED_PENCIL)],
        ["height-check", "--cutoff-X", "4", "--delta", "0.5",
         "--input-json", json.dumps(quartic)],
    ]

    def run(fresh):
        out = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            out.append((code, capsys.readouterr().out))
        return out

    fresh = run(True)
    cli.build_parser.cache_clear()
    shared = run(False)
    assert cli.build_parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 2, 0, 0]
    assert json.loads(shared[2][1])["error"]["type"] == "RangeError"


def _number_paths(x, path=()):
    """The path of every number field of a JSON input."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _number_paths(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _number_paths(v, path + (i,))
    else:
        yield path


def test_json_numbers_are_ints_or_strings(capsys):
    """A JSON float, bool or null in any number field of any input command,
    or a string with a huge decimal exponent, is an input error (exit 1),
    never read as a nearby number; JSON ints and strings such as "3/2" and
    "0.1" read the same, exactly, in every command."""
    f = {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]}
    divisor = {"f": f, "U": {"degree": 1, "coeffs": ["1", "-1"]}, "w": "2"}
    datum = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "1"]},
             "alpha": ["0", "1", "0", "0"], "z": "1"}
    commands = [(["invariant"], WORKED_PENCIL), (["covariant"], WORKED_PENCIL),
                (["reduce"], WORKED_PENCIL), (["orbit"], datum),
                (["divisor-orbit"], divisor), (["norm-check"], divisor),
                (["height-check", "--cutoff-X", "4", "--delta", "0.5"],
                 divisor)]

    def run(args, payload):
        code = cli.main(args + ["--input-json", json.dumps(payload)])
        return (code,) + tuple(capsys.readouterr())

    for args, payload in commands:
        for path in _number_paths(payload):
            for bad in (1.5, True, None, "1e5000"):
                doc = copy.deepcopy(payload)
                *head, last = path
                node = doc
                for key in head:
                    node = node[key]
                node[last] = bad
                code, out, err = run(args, doc)
                assert code == 1 and out == "", (args, path, bad)
                assert err.startswith("input error:"), (args, path, bad)
    # ints and strings read alike: 7 and "7", "3/2" and "1.5"
    as_ints = json.loads(json.dumps(WORKED_PENCIL))
    as_ints["n"] = 4
    as_ints["A"][3][3] = 7
    as_ints["B"][0][0] = "3/2"
    as_strings = json.loads(json.dumps(as_ints))
    as_strings["n"] = "4"
    as_strings["A"][3][3] = "7"
    as_strings["B"][0][0] = "1.5"
    first = run(["invariant"], as_ints)
    assert first[0] == 0 and run(["invariant"], as_strings) == first
    p = pr.Pencil(4, *(tuple(tuple(map(Fraction, row)) for row in as_ints[M])
                       for M in "AB"))
    assert json.loads(first[1])["form"] == \
        pr.invariant_form(p).to_json_dict()
    # w = "0.1" is 1/10 exactly wherever it is read
    tenth = dict(divisor, w="0.1")
    assert pr.DivisorSpec.from_json_dict(tenth).w == Fraction(1, 10)
    int_w = dict(divisor, f=dict(f, degree=4, coeffs=[1, 0, 0, 0, 3]), w=2)
    for args, payload in commands[4:]:
        assert run(args, int_w) == run(args, divisor)
        assert run(args, int_w)[0] == 0


_DIVISOR = {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "3"]},
            "U": {"degree": 1, "coeffs": ["1", "-1"]}, "w": "2"}
_FUZZ_COMMANDS = [
    (["invariant"], WORKED_PENCIL), (["covariant"], WORKED_PENCIL),
    (["reduce"], WORKED_PENCIL),
    (["orbit"], {"f": {"degree": 4, "coeffs": ["1", "0", "0", "0", "1"]},
                 "alpha": ["0", "1", "0", "0"], "z": "1"}),
    (["divisor-orbit"], _DIVISOR), (["norm-check"], _DIVISOR),
    (["height-check", "--cutoff-X", "4", "--delta", "0.5"], _DIVISOR)]
# wrong types, bad number strings and zero denominators
_FUZZ_VALUES = [1.5, True, None, [], {}, [["1"]], "abc", "", " ", "1/0",
                "0", "-3/0", "0/5", "nan", "inf", "1e5000", "0x10", "3/",
                "/3", "1_0", "--2", "9" * 40, -1, 10 ** 30]


def _paths(x, path=()):
    """The path of every node of a JSON document below the root."""
    if path:
        yield path
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for k, v in items:
        yield from _paths(v, path + (k,))


@settings(deadline=None, max_examples=400, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_ends_in_documented_exit(data):
    """Valid payloads of every input command, mutated with wrong types, bad
    number strings, missing keys, ragged or short rows and zero
    denominators: cli.main returns 0, 1 or 2 and never raises; exit 2
    prints {"error": {"type", "message"}} on stdout, exit 1 an input error
    on stderr."""
    args, doc = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *head, last = data.draw(st.sampled_from(paths))
        node = doc
        for key in head:
            node = node[key]
        action = data.draw(st.sampled_from(("set", "drop", "grow")))
        if action == "set":
            node[last] = data.draw(st.sampled_from(_FUZZ_VALUES))
        elif action == "drop":          # a missing key or a short row
            del node[last]
        elif isinstance(node, list):    # a ragged row or an extra entry
            node.append(copy.deepcopy(node[last]))
        else:
            node[last + "_extra"] = copy.deepcopy(node[last])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--precision", "64"] + args
                        + ["--input-json", json.dumps(doc)])
    assert code in (0, 1, 2), (args, doc)
    if code == 2:
        error = json.loads(out.getvalue())["error"]
        assert set(error) == {"type", "message"}, (args, doc)
    elif code == 1:
        assert err.getvalue().startswith("input error"), (args, doc)
        assert out.getvalue() == ""

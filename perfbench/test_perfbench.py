"""Tests of the benchmark itself: tracing, input determinism, checks and the
printed metric names.  Run with ``python -m pytest perfbench``."""

import contextlib
import io
import json
import os
import sys

import pytest

import run

run.load_library()

import pencilred  # noqa: E402
import seeded  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"]
                                       for w in BENCHMARK["workloads"])


def library_bindings():
    return {(key, attr): value
            for key, m in sys.modules.items()
            if m is not None and (key == "pencilred"
                                  or key.startswith("pencilred."))
            for attr, value in vars(m).items()}


def first_items(w, kind, seed, count):
    gen = w.items(kind, seed)
    return [next(gen) for _ in range(count)]


def test_tracer_restores_every_patched_attribute():
    before = library_bindings()
    with tracing.Tracer() as tracer:
        assert pencilred.reduce.lll_gram is not before[
            ("pencilred.reduce", "lll_gram")]
        assert pencilred.equidist.lll_gram is pencilred.reduce.lll_gram
        assert len(tracer._patched) > len(tracing.ENTRY_POINTS)
    after = library_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_subtracts_direct_children():
    spans = [["outer", 0.0, 10.0, -1, 0], ["inner", 1.0, 4.0, 0, 0],
             ["inner", 5.0, 6.0, 0, 0], ["leaf", 2.0, 3.0, 1, 0]]
    st = tracing.self_times(spans)
    assert st["outer"] == (1, 6.0)
    assert st["inner"] == (2, 3.0)
    assert st["leaf"] == (1, 1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = WORKLOADS[name]
    a = repr(first_items(w, seeded.TIMED, 7, 4)).encode()
    b = repr(first_items(w, seeded.TIMED, 7, 4)).encode()
    assert a == b
    assert a != repr(first_items(w, seeded.TIMED, 8, 4)).encode()
    warm = first_items(w, seeded.WARMUP, 7, 4)
    assert not set(map(repr, warm)) & set(map(repr, first_items(
        w, seeded.TIMED, 7, 4)))


def corrupt(name, out):
    if name == "sample-n4":
        batch, freq, hist = out
        first = batch.items[0]
        bad = type(first)(**{**first.__dict__, "height": first.height + 1})
        return (type(batch)(**{**batch.__dict__,
                               "items": (bad,) + batch.items[1:]}),
                freq, hist)
    if name == "reduce-n6-10":
        res, in_cusp = out
        R = res.reduced
        swapped = type(R)(R.n, R.B, R.A)
        return type(res)(**{**res.__dict__, "reduced": swapped}), in_cusp
    code, text = out
    report = json.loads(text)
    report["vector_length_bound"]["holds"] = False
    return code, json.dumps(report)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(name):
    w = WORKLOADS[name]
    item = first_items(w, seeded.TIMED, 3, 1)[0]
    out = w.run(item)
    assert run.check(w, [(item, 0.1, out)]) == 0
    assert run.check(w, [(item, 0.1, corrupt(name, out))]) >= 1
    assert run.check(w, [(item, 0.1, RuntimeError("boom"))]) == w.size(item)


def result_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name):
    res = result_of(["--workload", name, "--seed", "2", "--seconds", "0.01",
                     "--trace", "1"])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected


def test_untraced_run_reports_every_end_to_end_metric():
    res = result_of(["--workload", "sample-n4", "--seed", "2", "--seconds",
                     "0.01", "--trace", "0"])
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())

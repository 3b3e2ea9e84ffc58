"""Suite driver contract: tolerances, argument checks, the registry."""

import itertools
import json
import math

import numpy as np
import pytest

import dirikit.quadrature
import dirikit.suites
from dirikit import QuadratureSpec
from dirikit.suites import (
    SUITES,
    VerificationReport,
    _Recorder,
    run_atomic,
    run_dilation,
    run_douglas,
    run_isometry,
    run_all,
    run_kernel,
    run_monomial,
    run_shiftineq,
    run_suite,
    run_szego,
    run_tmap,
)


def test_szego_series_checks_keep_their_tolerance():
    # the 36 quadrature checks fail; the 9 series checks keep 1e-10
    report = run_szego(tolerance=-1)
    assert len(report.failures) == 36
    assert all("check" not in f.record for f in report.failures)


@pytest.mark.parametrize(
    "angles",
    [[1.0], [1.0, 1.0 + 1e-10], [2.0 * math.pi - 1e-10, 0.0, 3.0]],
    ids=["equal", "closer-than-tolerance", "across-zero"],
)
def test_monomial_splits_atoms_one_measure_cannot_hold(monkeypatch, angles):
    # trial angles that collide as atoms still give each trial its own
    # local integrals: the values of a one-trial run at the same angle
    def run(trials, angles, tolerance=-1):
        cycle = itertools.cycle(angles)
        monkeypatch.setattr(dirikit.suites, "_random_angle", lambda rng: next(cycle))
        return run_monomial(trials=trials, tolerance=tolerance)

    assert run(2 * len(angles), angles, tolerance=None).passed
    batch = run(2 * len(angles), angles)
    for i in range(2 * len(angles)):
        mine = [f for f in batch.failures if f.record["trial"] == i]
        alone = run(1, [angles[i % len(angles)]]).failures
        assert [(f.observed, f.expected) for f in mine] == [
            (f.observed, f.expected) for f in alone
        ]
        assert [f.record["atom_angle"] for f in mine] == [
            f.record["atom_angle"] for f in alone
        ]


def test_isometry_positivity_keeps_its_tolerance():
    # one vanishing-difference failure per trial; positivity keeps 1e-9
    report = run_isometry(trials=20, tolerance=-1)
    assert len(report.failures) == 20


def test_douglas_override_reaches_order_one():
    report = run_douglas(trials=12, tolerance=-1)
    assert len(report.failures) == 12
    assert {f.record["n"] for f in report.failures} == {1, 2, 3, 4}


def test_dilation_factor_sweep_stays_out_of_max_residual():
    report = run_dilation(trials=5, tolerance=-1)
    assert len(report.failures) == 5
    assert report.max_residual < -0.1


@pytest.mark.parametrize(
    "runner, kwargs",
    [
        (run_atomic, {"orders": [1]}),
        (run_isometry, {"orders": [2]}),
        (run_kernel, {"spec": QuadratureSpec()}),
        (run_shiftineq, {"spec": QuadratureSpec()}),
        (run_douglas, {"orders": [0]}),
        (run_douglas, {"orders": []}),
        (run_shiftineq, {"orders": [-1]}),
        (run_douglas, {"trials": -1}),
        (run_douglas, {"orders": [13]}),
        (run_tmap, {"orders": [1, 14]}),
        (run_shiftineq, {"orders": [13]}),
        (run_monomial, {"orders": [16]}),
        (run_szego, {"orders": [61]}),
        (run_douglas, {"tolerance": math.nan}),
    ],
)
def test_driver_rejects_before_the_first_trial(runner, kwargs, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial started")

    monkeypatch.setattr(np.random, "default_rng", no_trial)
    with pytest.raises(ValueError):
        runner(**{"trials": 5, **kwargs})


def test_orders_up_to_the_highest_are_run():
    assert run_tmap(trials=3, orders=[13]).passed
    assert run_shiftineq(trials=3, orders=[12]).passed
    assert run_douglas(trials=3, orders=[12]).passed


def test_shiftineq_accepts_order_zero():
    report = run_shiftineq(trials=4, orders=[0])
    assert report.passed and report.trials == 4


def test_runners_are_looked_up_in_the_registry_at_call_time(monkeypatch):
    # run_suite and run_all read SUITES when called and nothing else off
    # its values, so plain callables may stand in for the runners
    calls = {}
    for name in SUITES:
        def fake(name=name, **kwargs):
            calls[name] = kwargs
            return name

        monkeypatch.setitem(SUITES, name, fake)
    assert run_suite("atomic", trials=3) == "atomic"
    assert calls["atomic"]["trials"] == 3
    spec = QuadratureSpec(32, 64)
    assert run_all(seed=7, spec=spec) == list(SUITES)
    assert {name for name, kw in calls.items() if kw["spec"] is not None} == {
        "douglas",
        "tmap",
        "szego",
    }
    assert all(kw["seed"] == 7 for kw in calls.values())
    with pytest.raises(KeyError):
        run_suite("nonexistent")


def test_non_finite_residuals_fail_and_show_in_the_report():
    # NaN compares false with every tolerance and loses every max
    rec = _Recorder(1e-9, False)
    rec.equality({"check": "eq"}, float("nan"), 1.0)
    rec.upper_bound({"check": "ub"}, float("nan"), 1.0)
    rec.equality({"check": "inf"}, math.inf, 1.0)
    assert [f.record["check"] for f in rec.failures] == ["eq", "ub", "inf"]
    assert rec.max_residual == math.inf
    report = VerificationReport("demo", 1, 0, rec.failures, rec.max_residual)
    payload = json.loads(json.dumps(report.to_json(), allow_nan=False))
    assert payload["passed"] is False
    assert payload["max_residual"] == "inf"
    assert payload["failures"][0]["observed"] == "nan"
    assert payload["failures"][0]["gap"] == "inf"
    assert payload["failures"][0]["expected"] == 1.0


def test_quadrature_suites_leave_the_grid_to_each_integral(monkeypatch):
    # without a spec the body sees None and QuadratureSpec.choose picks the
    # grid of every triple; a given spec is the grid of every triple
    seen, grids = [], []
    real = QuadratureSpec.choose.__func__

    def spying(cls, spec, degree, order, exact):
        seen.append(spec)
        grids.append(real(cls, spec, degree, order, exact))
        return grids[-1]

    monkeypatch.setattr(QuadratureSpec, "choose", classmethod(spying))
    assert run_douglas(trials=4).passed
    assert seen == [None] * 4
    spec = QuadratureSpec(64, 128)
    assert run_douglas(trials=2, spec=spec).passed
    assert seen[4:] == grids[4:] == [spec, spec]


@pytest.mark.parametrize(
    "name, spec",
    [("dilation", None), ("multiplier", None), ("isometry", None),
     ("shiftineq", None), ("vsubspace", None), ("douglas", None),
     ("douglas", QuadratureSpec(32, 64)), ("tmap", None),
     ("tmap", QuadratureSpec(32, 64)), ("monomial", None)],
    ids=["dilation", "multiplier", "isometry", "shiftineq", "vsubspace",
         "douglas", "douglas-32,64", "tmap", "tmap-32,64", "monomial"],
)
def test_trial_batches_do_not_move_a_trial(name, spec, monkeypatch):
    # trial i is seeded by (seed, i) alone: a run of T trials lists the
    # failures of the first T trials of a longer run, wherever the batch
    # boundaries fall; the trial batch and the cell budget are patched
    # down, so that the runs split inside each call as well
    batch = 7
    monkeypatch.setattr(dirikit.suites, "_TRIAL_BATCH", batch)
    monkeypatch.setattr(dirikit.quadrature, "_CELL_BUDGET", 64)

    def trial_failures(trials):
        report = run_suite(name, trials=trials, seed=3, tolerance=-1, spec=spec)
        return [f.to_json() for f in report.failures if "trial" in f.record]

    longer = trial_failures(2 * batch + 7)
    if name != "vsubspace":
        # its odd trials, not rooted, record no failure at any tolerance
        assert {f["record"]["trial"] for f in longer} == set(range(2 * batch + 7))
    for trials in (0, 1, batch + 1):
        head = [f for f in longer if f["record"]["trial"] < trials]
        assert trial_failures(trials) == head


def test_douglas_hands_both_routes_the_same_triples(monkeypatch):
    # each batch builds its (f, unit atom, order) triples once and passes
    # the same ones to both routes, one call each; the suite divides by
    # no point of its own
    calls = {"_quadrature_values": [], "_exact_values": []}

    def spy(name):
        real = getattr(dirikit.suites, name)

        def spying(triples, *rest):
            calls[name].append(triples)
            return real(triples, *rest)

        monkeypatch.setattr(dirikit.suites, name, spying)

    def forbidden(*args):
        raise AssertionError("douglas computed local integrals of its own")

    for name in calls:
        spy(name)
    monkeypatch.setattr(dirikit.suites, "_local_integrals", forbidden)
    monkeypatch.setattr(dirikit.suites, "_TRIAL_BATCH", 7)
    assert run_douglas(trials=17, seed=4).passed
    quadrature, exact = calls.values()
    assert [len(triples) for triples in quadrature] == [7, 7, 3]
    assert len(exact) == 3
    for mine, theirs in zip(quadrature, exact):
        assert len(mine) == len(theirs)
        assert all(a is b for a, b in zip(mine, theirs))
        for _, measure, _ in mine:
            assert measure.lebesgue == 0.0
            assert [atom.mass for atom in measure.atoms] == [1.0]

"""The verification grids run as closed-form batches with the oracle's results
as columns: every row's report is the one fidelity() gives for the same
pair."""

import json
from dataclasses import replace

import numpy as np
import pytest

import dstfid.reduction as red
from dstfid.algebra import state
from dstfid.cli import main
from dstfid.fock import fidelity_oracle
from dstfid.reconcile import pair_grid, run_verification, self_grid
from dstfid.reduction import FidelityOptions, SqueezeGapError, closed_form, fidelity
from test_reduction import _carried

OPTS = FidelityOptions(oracle_tol=1e-8, oracle_ceiling=512)


@pytest.mark.parametrize("tol", [1e-8, 0.3], ids=["tol-1e-8", "tol-0.3"])
@pytest.mark.parametrize(
    "pairs",
    [pair_grid()[::11], [(s, s) for s in self_grid()[::5]]],
    ids=["quick-pair-grid", "quick-self-grid"],
)
def test_batch_reports_equal_fidelity(pairs, tol):
    # a coarse flag threshold drops some flags, so the batch must use opts.tol
    opts = FidelityOptions(tol=tol, oracle_tol=1e-8, oracle_ceiling=512)
    cf = closed_form(pairs, opts)
    assert len(cf) == len(cf.oracle) == len(cf.value_oracle) == len(pairs)
    for i, (s1, s2) in enumerate(pairs):
        got, want = cf.report(i), fidelity(s1, s2, opts)
        assert _carried(got) == _carried(want)
        assert [f.name for f in got.discrepancy_flags] == \
            [f.name for f in want.discrepancy_flags]
        assert repr(got.value_oracle) == repr(want.value_oracle)
        assert got.oracle == want.oracle


def test_batch_without_oracle_carries_no_oracle_values():
    pairs = pair_grid()[::11][:3]
    cf = closed_form(pairs, FidelityOptions(oracle=False))
    assert cf.oracle is None and cf.value_oracle is None
    for i, (s1, s2) in enumerate(pairs):
        rep = cf.report(i)
        assert rep.oracle is None and rep.value_oracle is None
        assert _carried(rep) == _carried(fidelity(s1, s2, FidelityOptions(oracle=False)))


def test_refused_pair_raises_as_fidelity_does(monkeypatch):
    # before any oracle runs; a squeeze gap of 356 puts cosh 2(r1 - r2) past
    # double range
    good = (state(0.0, 0.2, nbar=1.0), state(0.5, 0.3, nbar=1.0))
    refused = (state(0.0, -178.0, nbar=1.0), state(0.5, 178.0, nbar=1.0))
    with pytest.raises(SqueezeGapError) as want:
        fidelity(*refused, OPTS)
    calls = []
    monkeypatch.setattr(red, "fidelity_oracle", lambda *a, **kw: calls.append(a))
    with pytest.raises(SqueezeGapError) as got:
        closed_form([good, refused, good], OPTS)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert calls == []


def test_oracle_refusal_carries_its_row():
    # the oracle's own ValueError, tagged as a refused row is: a ceiling of 60
    # clears nbar = 0.1's thermal floor but not nbar = 3's (97)
    cold, hot = state(0.0, 0.0, nbar=0.1), state(0.0, 0.0, nbar=3.0)
    with pytest.raises(ValueError, match=r"cutoff 60 .*; need at least 97$") as got:
        closed_form([(cold, cold), (cold, hot), (hot, hot)], replace(OPTS, oracle_ceiling=60))
    assert type(got.value) is ValueError and got.value.row == 1


def test_every_oracle_run_uses_the_run_ceiling(monkeypatch):
    # the difference-convention pair included, not the default ceiling 1024
    ceilings = []

    def recorded(s1, s2, tol, ceiling):
        ceilings.append(ceiling)
        return fidelity_oracle(s1, s2, tol=tol, ceiling=ceiling)

    monkeypatch.setattr(red, "fidelity_oracle", recorded)
    assert run_verification(preset="quick", ceiling=300).passed
    assert ceilings and set(ceilings) == {300}


def test_flag_and_verify_share_one_agreement_bound(monkeypatch, capsys):
    # verify bounds |F_pipeline - F_oracle| and the decomposition identity by
    # the bound that floors compute's and sweep's pipeline-vs-oracle flag
    assert main(["verify", "--preset", "quick", "--format", "record"]) == 0
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    for name in ("pipeline-vs-oracle", "decomposition-identity"):
        assert checks[name]["threshold"] == red.ORACLE_AGREEMENT
    # an oracle low by 0.9, 1.1, 50 and 2000 bounds in turn: the flag fires
    # above max(tol, bound), so the bound floors a fine tol and a coarse tol rules
    bound, right = red.ORACLE_AGREEMENT, fidelity_oracle

    def low(*args, **kwargs):
        res = right(*args, **kwargs)
        return replace(res, fidelity=res.fidelity - next(offsets))

    monkeypatch.setattr(red, "fidelity_oracle", low)
    pairs = [(state(0.0, 0.3, nbar=0.5), state(g, 0.3, nbar=0.5)) for g in (0.2, 0.4, 0.6, 0.8)]
    for tol, flagged in ((bound / 100, [False, True, True, True]),
                         (bound * 100, [False, False, False, True])):
        offsets = iter([0.9 * bound, 1.1 * bound, 50 * bound, 2000 * bound])
        cf = closed_form(pairs, FidelityOptions(tol=tol, oracle_ceiling=512))
        mask, magnitude = cf.flags["pipeline-vs-oracle"]
        assert np.array_equal(magnitude, np.abs(cf.value_matrix_pipeline - cf.value_oracle))
        assert np.array_equal(mask, magnitude > max(tol, bound))
        assert mask.tolist() == flagged

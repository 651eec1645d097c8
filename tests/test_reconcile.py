"""The verification grids run as closed-form batches with the oracle's results
as columns: every row's report is the one fidelity() gives for the same
pair."""

import pytest

import dstfid.reduction as red
from dstfid.algebra import state
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


def test_every_oracle_run_uses_the_run_ceiling(monkeypatch):
    # the difference-convention pair included, not the default ceiling 1024
    ceilings = []

    def recorded(s1, s2, tol, ceiling):
        ceilings.append(ceiling)
        return fidelity_oracle(s1, s2, tol=tol, ceiling=ceiling)

    monkeypatch.setattr(red, "fidelity_oracle", recorded)
    assert run_verification(preset="quick", ceiling=300).passed
    assert ceilings and set(ceilings) == {300}

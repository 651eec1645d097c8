"""The route-check census: every fault is refused, every check is accounted for.

One table of faults, each injected by monkeypatch into the matching system
of the 2x2 matrix route or into a closed-form helper, runs on one seeded
draw of 2 000 pairs (|r| <= 3, beta log-uniform in [0.01, 100], g standard
normal, seed 7).  Each fault must be refused on at least 99% of the rows, and
every refused row's first failing check must be one the table lists for that
fault.  Every check of the batch must then be accounted for: listed for a
fault, refusing a real input named below, or named with the reason it can
refuse nothing.

A fault that moves l by a relative eps hides, on rows where |l| < 1e-13/eps,
under the multiplier check's floor 1e-13 max(c1, .): there the solved c1 l
moves by less than 1e-13 c1 (a cold state 1, see ROADMAP item 6).  The
faults marked with that floor are counted on the other rows only.

Faults still missing a check, left out here: c1 = cosh(beta1/2), X and
log Delta (ROADMAP item 12).
"""

import math

import numpy as np
import pytest

import dstfid.reduction as red

N = 2000
_rng = np.random.default_rng(7)
R1, R2 = _rng.uniform(-3.0, 3.0, (2, N))
B1, B2 = np.exp(_rng.uniform(math.log(0.01), math.log(100.0), (2, N)))
G = _rng.standard_normal(N) + 1j * _rng.standard_normal(N)

# the outputs of reduction._variables, in order
VARIABLES = ("t1", "t2", "c1", "c2", "u1", "u2", "T", "X", "D'", "log c1", "log Delta")


def _evaluate(r1=R1, b1=B1, g=G, r2=R2, b2=B2):
    return red._evaluate(g, r1, b1, r2, b2, 1e-8)


def _at(path, change):
    """A fault on a site's output: the entry at path (indices into its nested
    tuples) replaced by change(entry)."""
    i, *rest = path

    def fault(out):
        new = _at(rest, change)(out[i]) if rest else change(out[i])
        return (*out[:i], new, *out[i + 1:])

    return fault


def _scale(eps):
    return lambda x: x * (1.0 + eps)


def _variable(name, eps):
    return "_variables", _at([VARIABLES.index(name)], _scale(eps))


# _matching_system returns (v0, (q01, q10), (rhs0, rhs1), (m, big))
SYSTEM = {"v0": [0], "q01": [1, 0], "q10": [1, 1], "rhs0": [2, 0], "rhs1": [2, 1],
          "m": [3, 0], "big": [3, 1]}


def _system(name, change):
    return "_matching_system", _at(SYSTEM[name], change)


# (fault, (site, fault on its output), checks expected to refuse it, relative
# move of l where the multiplier check's floor hides it, or None)
CENSUS = [
    ("v0 x (1 + 1e-6)", _system("v0", _scale(1e-6)), {"delta1-dual-path"}, None),
    ("q01 x (1 + 1e-6)", _system("q01", _scale(1e-6)), {"determinant-dual-path"}, None),
    ("q10 x (1 + 1e-6)", _system("q10", _scale(1e-6)), {"determinant-dual-path"}, None),
    ("q01 x 0", _system("q01", lambda x: 0.0 * x), {"determinant-dual-path"}, None),
    ("rhs0 x (1 + 1e-3)", _system("rhs0", _scale(1e-3)),
     {"ratio-dual-path", "multiplier-dual-path"}, 1e-3),
    ("rhs1 x (1 + 1e-3)", _system("rhs1", _scale(1e-3)),
     {"ratio-dual-path", "multiplier-dual-path"}, 1e-3),
    ("real part on rhs1", _system("rhs1", lambda x: x + 1e-6 * abs(x)),
     {"conjugate-pair", "multiplier-dual-path"}, None),
    ("imaginary part on rhs0", _system("rhs0", lambda x: x + 1e-6j * abs(x)),
     {"conjugate-pair", "multiplier-dual-path"}, None),
    # where state 2 is hot and r2 - r1 < -3, e^{+-d}'s share of the route's A
    # is below 1e-7, so a 1e-3 scale moves no checked value past 1e-10 on ~1%
    ("m x (1 + 1e-2)", _system("m", _scale(1e-2)), {"ratio-dual-path"}, None),
    ("big x (1 + 1e-2)", _system("big", _scale(1e-2)), {"ratio-dual-path"}, None),
    ("t1 x (1 + 1e-6)", _variable("t1", 1e-6), {"determinant-dual-path"}, None),
    ("t2 x (1 + 1e-6)", _variable("t2", 1e-6), {"determinant-dual-path"}, None),
    ("T x (1 + 1e-6)", _variable("T", 1e-6), {"determinant-dual-path"}, None),
    ("D' x (1 + 1e-6)", _variable("D'", 1e-6), {"determinant-dual-path"}, None),
    ("c2 x (1 + 1e-6)", _variable("c2", 1e-6), {"ratio-dual-path"}, None),
    ("u1 x (1 + 1e-6)", _variable("u1", 1e-6),
     {"ratio-dual-path", "multiplier-dual-path"}, 1e-6),
    ("u2 x (1 + 1e-6)", _variable("u2", 1e-6),
     {"ratio-dual-path", "multiplier-dual-path"}, 1e-6),
    ("_multiplier x (1 + 1e-8)", ("_multiplier", _scale(1e-8)), {"multiplier-dual-path"}, 1e-8),
    ("_squeezed_terms x (1 + 1e-6)",
     ("_squeezed_terms", lambda terms: tuple(t * (1.0 + 1e-6) for t in terms)),
     {"delta1-dual-path"}, None),
]

# (r1, beta1, g, r2, beta2) of a real input, k1 = 0, that each check refuses first
REAL_INPUTS = {
    "squeeze-gap": (354.6, 1.0, 0.5, 0.0, 1.0),
    "squeeze-factor-2": (355.0, 1.0, 0.5, 355.0, 1.0),
    "squeeze-factor-1": (355.0, 1.0, 0.5, 354.0, 1.0),
    "finite-mismatch": (0.0, 1.0, complex(math.inf, 0.0), 0.0, 1.0),
    "mismatch-range": (0.0, 1.0, 1e160, 0.0, 1.0),
    # the solve's c1 l goes subnormal and keeps too few digits, and the
    # closed-form log delta1 is wrong there (-0.322 against -0.216): this
    # check is all that refuses it, so dividing the solve's right-hand side
    # by |v0| (ROADMAP item 6) must wait for item 16's log N2
    "solve-residual": (0.0, 1.0, 1e-8j, 354.0, 744.0),
    # the route's delta2 exponent is not finite, and NaN fails the ratio check (ROADMAP item 6)
    "ratio-dual-path": (2.514573631676037, 2.2687897883326802e-21,
                        complex(-8.214789107378263e+76, -4.300931720814783e+74),
                        177.19411243212278, 18.470574823807027),
}

CANNOT_REFUSE = {
    "annihilation": "(Ah)^T Sigma (Ah) = 0 for every matrix A and vector h",
}


def _counted(blind_eps):
    """The rows a fault is counted on: all, or those where a relative move
    blind_eps of l clears the multiplier check's floor."""
    if blind_eps is None:
        return np.ones(N, dtype=bool)
    return np.abs(_evaluate()[0].pipeline.l) >= 1e-13 / blind_eps


def test_the_draw_passes_every_check():
    _, checks, first = _evaluate()
    assert np.all(first == len(checks))


@pytest.mark.parametrize("site, fault, expected, blind_eps",
                         [(*injected, expected, blind_eps)
                          for _, injected, expected, blind_eps in CENSUS],
                         ids=[row[0] for row in CENSUS])
def test_each_fault_is_refused_by_its_checks(monkeypatch, site, fault, expected, blind_eps):
    counted = _counted(blind_eps)
    right = getattr(red, site)
    monkeypatch.setattr(red, site, lambda *args: fault(right(*args)))
    _, checks, first = _evaluate()
    names = [name for name, _, _ in checks]
    refused = first < len(names)
    assert {names[k] for k in np.unique(first[refused])} <= expected
    assert refused[counted].sum() >= 0.99 * counted.sum()


def test_every_check_is_accounted_for():
    names = [name for name, _, _ in _evaluate()[1]]
    listed = set().union(*(expected for *_, expected, _ in CENSUS))
    assert listed | set(REAL_INPUTS) | set(CANNOT_REFUSE) == set(names)
    r1, b1, g, r2, b2 = (np.array(column) for column in zip(*REAL_INPUTS.values()))
    first = _evaluate(r1, b1, g.astype(complex), r2, b2)[2]
    assert [names[k] for k in first] == list(REAL_INPUTS)


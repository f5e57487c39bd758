"""The contract every source family keeps, checked family by family: its key
is the tag, the letter dimension and each constructor field, so equal
families share cache entries and families that differ in any field do not;
its config spec builds the same family as its constructor; its VC bound is
the documented formula; each row's log-density is the row's alone; its
``log_density_bounds`` values lie within their bound of the exact kernel's;
its prior draws validate; ``validate`` refuses a theta of the wrong size,
shape or a non-finite coordinate, and names why a finite theta lies outside
the family's region; and its draws join into one draw where it declares
``draws_by_row``.  Every comparison is bit for bit within one process, but
for the AR rounding that ``same_values`` names.  Hypothesis draws the inputs
of every property but the equality of families built apart, the written-out
keys, the VC formulas and the bound, derandomized; the bound stays on fixed
inputs, as drawn HMM cases cost seconds each."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twostage.models import (ConfigError, GaussianAR, GaussianIID, HiddenMarkov,
                             InvalidParameterError, check, make_family)
from twostage.rand import rng_for

E = math.e
HMM2 = {"kind": "hmm", "M": 2, "a0": 0.05, "emission_means": [-1.0, 2.0],
        "emission_stds": [0.7, 1.1]}
HMM3 = {"kind": "hmm", "M": 3, "a0": 0.0, "emission_means": [-2.0, 0.0, 2.0],
        "emission_stds": [0.5, 1.0, 1.5]}
HMM2D = {"kind": "hmm", "M": 2, "a0": 0.05,
         "emission_means": [[-1.0, 0.0], [1.0, 2.0]],
         "emission_stds": [[1.0, 1.0], [0.5, 0.5]]}

# one override for each prior key a family reads
PRIORS = {"gaussian-iid": ({"m_loc": 3.0}, {"m_scale": 0.5}, {"log_sigma_loc": -1.0},
                           {"log_sigma_scale": 0.2}),
          "gaussian-ar": ({"low": -0.5}, {"high": 0.5}),
          "hmm": ({"concentration": 0.3},)}

# thetas outside each family's region, built from a valid theta t and a draw
# u in [0, 1), each with the start of the message that says why: a sigma of
# at most 0; a last AR coefficient of modulus above 1, so that the roots'
# product, of modulus 1 / |a_p|, puts a root inside the unit circle; an HMM
# entry below a0 (beyond the region's 1e-12 slack), and a row scaled to sum
# above 1
OUTSIDE = {
    "gaussian-iid": lambda fam, t, u: [((t[0], -u * t[1]), "sigma must be > 0, got ")],
    "gaussian-ar": lambda fam, t, u: [
        ((*t[:-1], (1.01 + u) * (-1) ** int(4 * u)),
         "AR polynomial has a root inside the unit circle")],
    "hmm": lambda fam, t, u: [
        ((fam.a0 - 1e-9 - u, *t[1:]), f"all transition probabilities must exceed a0={fam.a0}"),
        ((*(t[:fam.M] * (1.0 + 1e-6 + u)), *t[fam.M:]), "transition rows must sum to 1")],
}

# (id, spec, direct construction, a valid theta, the key written out, V_n)
CASES = [
    ("iid", {"kind": "gaussian-iid"}, GaussianIID, (0.3, 1.4),
     ("gaussian-iid", 1), lambda n: 12 * math.log2(12 * E)),
    *((f"ar{p}", {"kind": "gaussian-ar", "p": p}, lambda p=p: GaussianAR(p=p),
       theta, ("gaussian-ar", 1, p), lambda n, p=p: (4 * p + 4) * math.log2(8 * E))
      for p, theta in ((1, (0.5,)), (2, (0.3, -0.2)), (3, (0.2, -0.1, 0.05)))),
    ("hmm2", HMM2, lambda: HiddenMarkov(M=2, a0=0.05, emission_means=[-1.0, 2.0],
                                        emission_stds=[0.7, 1.1]),
     (0.8, 0.2, 0.3, 0.7), ("hmm", 1, 2, 0.05, (-1.0, 2.0), (0.7, 1.1)),
     lambda n: 16 * math.log2(4 * E * n)),
    ("hmm3-a0-zero", HMM3,
     lambda: HiddenMarkov(M=3, a0=0.0, emission_means=[-2.0, 0.0, 2.0],
                          emission_stds=[0.5, 1.0, 1.5]),
     (0.6, 0.3, 0.1, 0.2, 0.5, 0.3, 0.1, 0.1, 0.8),
     ("hmm", 1, 3, 0.0, (-2.0, 0.0, 2.0), (0.5, 1.0, 1.5)),
     lambda n: 36 * math.log2(4 * E * n)),
    ("hmm2-2d", HMM2D,
     lambda: HiddenMarkov(M=2, a0=0.05, emission_means=[[-1.0, 0.0], [1.0, 2.0]],
                          emission_stds=[[1.0, 1.0], [0.5, 0.5]]),
     (0.9, 0.1, 0.2, 0.8),
     ("hmm", 2, 2, 0.05, (-1.0, 0.0, 1.0, 2.0), (1.0, 1.0, 0.5, 0.5)),
     lambda n: 16 * math.log2(4 * E * n)),
]


def cases(*columns):
    """The CASES columns named, one pytest param per family."""
    names = ("spec", "build", "theta", "key", "vc")
    return pytest.mark.parametrize(
        ",".join(columns),
        [pytest.param(*(c[1 + names.index(k)] for k in columns), id=c[0])
         for c in CASES])


# 20 examples per family keep each property under half a second
DRAWN = settings(max_examples=20, deadline=None, derandomize=True)


@st.composite
def specs(draw, kind, like=None):
    """A family spec of ``kind``: AR with p in 1..8; HMM with M in 1..4,
    0 <= a0 < 1/M and emission arrays of shape (M,) or (M, d), d <= 3 (the
    M and shape of the spec ``like``, if given)."""
    if kind == "gaussian-ar":
        return {"kind": kind, "p": draw(st.integers(1, 8))}
    if kind != "hmm":
        return {"kind": kind}
    M = like["M"] if like else draw(st.integers(1, 4))
    shape = np.shape(like["emission_means"]) if like else draw(
        st.sampled_from([(M,), (M, 1), (M, 2), (M, 3)]))

    def array(entries):
        flat = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
        return np.reshape(flat, shape).tolist()

    return {"kind": kind, "M": M, "a0": draw(st.floats(0.0, 1.0 / M, exclude_max=True)),
            "emission_means": array(st.floats(-100.0, 100.0)),
            "emission_stds": array(st.floats(0.01, 100.0))}


def nudged(value):
    """The value with its first entry moved one float toward 0 (up from 0),
    or an integer one up: inside the field's domain for the drawn specs."""
    if isinstance(value, int):
        return value + 1
    arr = np.array(value, dtype=float)
    arr.flat[0] = np.nextafter(arr.flat[0], -math.inf if arr.flat[0] > 0 else math.inf)
    return arr.tolist() if arr.ndim else float(arr)


@cases("build")
def test_equal_families_built_apart_share_key_and_hash(build):
    a, b = build(), build()
    assert a is not b
    assert a == b and a.key == b.key and hash(a) == hash(b)
    assert len({a: 0, b: 1}) == 1


@cases("build", "key")
def test_key_is_tag_dim_and_each_field(build, key):
    assert build().key == key


@cases("spec")
@DRAWN
@given(data=st.data())
def test_changing_any_one_field_changes_the_key(spec, data):
    # the case's spec and a drawn one; a field moved by one float, or set to
    # that of another drawn spec, changes the key exactly when its value
    # changes.  M is the row count of the emission arrays, so it cannot
    # change alone; the written-out keys cover it
    for s in (spec, data.draw(specs(spec["kind"]))):
        base = make_family(s)
        fields = [f for f in s if f not in ("kind", "M")]
        assert sorted(fields) == sorted(set(base.fields) - {"M"})
        other = data.draw(specs(s["kind"], like=s))
        for f in fields:
            moved = make_family({**s, f: nudged(s[f])})
            assert moved.key != base.key and moved != base, f
            changed = make_family({**s, f: other[f]})
            assert (changed.key == base.key) == (changed == base) == (other[f] == s[f]), f


@cases("spec", "build")
@DRAWN
@given(data=st.data())
def test_spec_builds_the_constructed_family(spec, build, data):
    fam = make_family(spec)
    assert type(fam) is type(build()) and fam == build() and fam.key == build().key
    drawn = data.draw(specs(spec["kind"]))
    fam = make_family(drawn)
    direct = type(fam)(**{k: v for k, v in drawn.items() if k != "kind"})
    assert type(fam) is type(direct) and fam == direct and fam.key == direct.key


@cases("build", "vc")
def test_vc_bound_is_the_documented_formula(build, vc):
    fam = build()
    for n in (1, 2, 8, 64, 1000):
        assert fam.vc_bound(n) == pytest.approx(vc(n), rel=1e-13)


def same_values(fam, got, want) -> bool:
    """Bit for bit, except that AR rows may differ in the last bits: LAPACK
    solves the stationary head of one row by another kernel than that of
    several, so its rounding depends on the batch size."""
    if isinstance(fam, GaussianAR):
        return np.allclose(got, want, rtol=1e-13, atol=0.0)
    return got.tobytes() == want.tobytes()


@cases("build")
@DRAWN
@given(k=st.integers(0, 999), n=st.integers(1, 8), rows=st.integers(1, 16))
def test_row_log_density_ignores_the_other_rows(build, k, n, rows):
    fam = build()
    theta = fam.prior_draw(rng_for(41, k))
    X = fam.sample_paths(theta, n, rows, rng_for(41, n))
    X[::3] *= 5.0           # rows far out in the tails beside typical ones
    batch = fam.log_density_batch(theta, X)
    assert batch.shape == (rows,) and np.all(np.isfinite(batch))
    alone = np.concatenate([fam.log_density_batch(theta, X[j:j + 1])
                            for j in range(rows)])
    assert same_values(fam, alone, batch)
    assert same_values(fam, fam.log_density_batch(theta, X[::-1]), batch[::-1])


@cases("build")
@DRAWN
@given(k=st.integers(0, 999), n=st.integers(1, 33),
       counts=st.lists(st.integers(1, 80), min_size=1, max_size=4))
def test_chunks_join_into_one_draw(build, k, n, counts):
    # distances.exceeds draws a draws_by_row family's rows a block at a time
    # and any other's whole, and sums the blocks' statistic against a bar set
    # for prefixes of the one-shot draw
    fam = build()
    theta, other = fam.prior_draw(rng_for(43, k)), fam.prior_draw(rng_for(44, k))
    rng = rng_for(43, n)
    blocks = counts if fam.draws_by_row else [sum(counts)]
    parts = [fam.sample_paths(theta, n, c, rng) for c in blocks]
    whole = fam.sample_paths(theta, n, sum(counts), rng_for(43, n))
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    if len(parts) > 1:          # each block scores as its rows of the whole
        for t in (theta, other):
            got = np.concatenate([fam.log_density_batch(t, x) for x in parts])
            assert got.tobytes() == fam.log_density_batch(t, whole).tobytes()


@cases("build", "theta")
def test_log_density_bounds_hold_the_exact_values(build, theta):
    # MDE orders two candidates on a block by these values only where their
    # bounds cannot overlap, so a bound that undercounts changes its tables
    fam = build()
    thetas = [fam.prior_draw(rng_for(47, k)) for k in range(6)]
    for n in (1, 3, 8, 32):
        X = fam.sample_paths(theta, n, 300, rng_for(47, n))
        X = np.concatenate((X, 5.0 * X))    # and blocks far out in the tails
        vals, bound = fam.log_density_bounds(thetas, X)
        exact = np.stack([fam.log_density_batch(t, X) for t in thetas])
        assert vals.shape == (6, 600) and bound.shape == (600,)
        assert np.all(np.isfinite(exact)) and np.all(bound >= 0)
        assert np.all(np.abs(vals - exact) <= bound)


def prior_overrides(fam):
    """An override of one prior key, drawn from its declared domain, kept to
    priors whose region has mass: an HMM concentration in [0.1, 100], and for
    AR both ends of a box inside [-1/(p+1), 1/(p+1)], where sum |a_i| < 1
    puts every root outside the unit circle."""
    if isinstance(fam, GaussianAR):
        edge = 1.0 / (fam.p + 1)
        return st.fixed_dictionaries(dict.fromkeys(("low", "high"), st.floats(-edge, edge)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    keys = {"m_loc": finite, "m_scale": st.floats(0.0, sys.float_info.max),
            "log_sigma_loc": finite, "log_sigma_scale": st.floats(0.0, math.inf),
            "concentration": st.floats(0.1, 100.0)}
    return st.one_of(*(st.dictionaries(st.just(k), keys[k], min_size=1)
                       for k in sorted(fam.prior_keys)))


@cases("build")
@DRAWN
@given(data=st.data(), k=st.integers(0, 999))
def test_prior_draws_validate(build, data, k):
    # an override that breaks a prior rule is refused; any other prior
    # draws only valid thetas
    fam = build()
    prior = data.draw(prior_overrides(fam))
    try:
        check(("prior", prior, fam.prior_keys, fam.prior_rules))
    except ConfigError:
        with pytest.raises(ConfigError):
            fam.prior_draw(rng_for(53, k), prior)
        return
    rng = rng_for(53, k)
    for _ in range(10):
        theta = fam.prior_draw(rng, prior)
        assert fam.validate(theta).tobytes() == theta.tobytes(), prior


@cases("build")
def test_each_prior_override_is_read(build):
    # each override moves the first draw
    fam = build()
    default = fam.prior_draw(rng_for(53, 0))
    for prior in PRIORS[fam.tag]:
        assert fam.prior_draw(rng_for(53, 0), prior).tobytes() != default.tobytes(), prior


@cases("build")
@DRAWN
@given(k=st.integers(0, 999))
def test_validate_refuses_size_shape_and_non_finite(build, k):
    fam = build()
    theta = fam.prior_draw(rng_for(59, k))
    got = fam.validate(theta.tolist())
    assert got.dtype == np.float64 and got.shape == (fam.size,)
    assert got.tobytes() == theta.tobytes()
    for wrong in (theta[:-1], np.append(theta, theta[0])):
        with pytest.raises(InvalidParameterError,
                           match=rf"^{re.escape(fam.tag)} needs {fam.size} coords, "
                                 rf"got {len(wrong)}$"):
            fam.validate(wrong)
    for i in range(fam.size):
        for v in (math.nan, math.inf, -math.inf):
            bad = theta.copy()
            bad[i] = v
            with pytest.raises(InvalidParameterError, match="^non-finite parameter$"):
                fam.validate(bad)
    with pytest.raises(InvalidParameterError, match="^parameter vector must be 1-D$"):
        fam.validate(theta[None, :])


@cases("build")
@DRAWN
@given(k=st.integers(0, 999), u=st.floats(0.0, 1.0, exclude_max=True),
       i=st.integers(0, 8), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_validate_names_why_theta_lies_outside(build, k, u, i, bad):
    # and a non-finite coordinate is named first, wherever the others lie
    fam = build()
    theta = fam.prior_draw(rng_for(61, k))
    for outside, why in OUTSIDE[fam.tag](fam, theta, u):
        with pytest.raises(InvalidParameterError, match="^" + re.escape(why)):
            fam.validate(outside)
        outside = np.array(outside)
        outside[i % fam.size] = bad
        with pytest.raises(InvalidParameterError, match="^non-finite parameter$"):
            fam.validate(outside)

"""Randomized check of the estimator ordering bm-gme <= bm-get <= eb over
the whole channel domain, nbar up to 1e6, and alpha from 1e-6 to 6."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from evebounds.bounds import bm_get_entropy, bm_gme_entropy, eb_qpsk_entropy
from evebounds.cloner import ChannelParams, qpsk

# bm-get's skip of thermal photon numbers below 1e-12 puts it up to about
# 4e-11 bits below bm-gme at alpha near 1e-6.
ORDER_TOL = 1e-10


@settings(derandomize=True, database=None, deadline=None)
@given(
    tau=st.floats(0.0, 1.0),
    # from [0, 5], and by its exponent from [1e-4, 1e6]
    nbar=st.one_of(st.floats(0.0, 5.0), st.floats(-4.0, 6.0).map(lambda e: 10.0**e)),
    # log-uniform: by its exponent from [1e-6, 6]
    alpha=st.floats(-6.0, math.log10(6.0)).map(lambda e: 10.0**e),
)
# bm-get and eb nearly meet here (tau near 0, nbar near 1e6); g(n) taken as
# the difference of two terms of about 2e7 put bm-get 4.2e-9 bits above eb.
@example(tau=0.08862585384459575, nbar=966587.4595204085, alpha=0.05796964625786598)
# Where both symplectic eigenvalues of bm-get's average covariance are near
# 1, its invariants route raised (the first two) or landed above eb (the
# next two, 5.0e-9 and 1.3e-8 bits); the last is the skip's worst case.
@example(tau=0.1, nbar=0.0, alpha=1e-4)
@example(tau=0.3, nbar=0.0, alpha=0.0001778279410038923)
@example(tau=0.5, nbar=0.0, alpha=1e-4)
@example(tau=0.5124, nbar=8.7e-11, alpha=1.396e-4)
@example(tau=0.225, nbar=0.0, alpha=1.13e-6)
def test_estimator_ordering(tau, nbar, alpha):
    params = ChannelParams(tau=tau, nbar=nbar)
    constellation = qpsk(alpha)
    gme = bm_gme_entropy(constellation, params)
    get = bm_get_entropy(constellation, params)
    eb = eb_qpsk_entropy(alpha, params)
    assert gme <= get + ORDER_TOL
    assert get <= eb + ORDER_TOL

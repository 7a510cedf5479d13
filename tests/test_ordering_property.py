"""Randomized check of the estimator ordering bm-gme <= bm-get <= eb over
the whole channel domain, nbar up to 1e6, and a wide amplitude range."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from evebounds.bounds import bm_get_entropy, bm_gme_entropy, eb_qpsk_entropy
from evebounds.cloner import ChannelParams, qpsk

# The tolerance of checks.check_estimator_ordering.
ORDER_TOL = 1e-9


@settings(derandomize=True, database=None, deadline=None)
@given(
    tau=st.floats(0.0, 1.0),
    # from [0, 5], and by its exponent from [1e-4, 1e6]
    nbar=st.one_of(st.floats(0.0, 5.0), st.floats(-4.0, 6.0).map(lambda e: 10.0**e)),
    alpha=st.floats(0.05, 6.0),
)
# bm-get and eb nearly meet here (tau near 0, nbar near 1e6); g(n) taken as
# the difference of two terms of about 2e7 puts bm-get 4.2e-9 bits above eb.
@example(tau=0.08862585384459575, nbar=966587.4595204085, alpha=0.05796964625786598)
def test_estimator_ordering(tau, nbar, alpha):
    params = ChannelParams(tau=tau, nbar=nbar)
    constellation = qpsk(alpha)
    gme = bm_gme_entropy(constellation, params)
    get = bm_get_entropy(constellation, params)
    eb = eb_qpsk_entropy(alpha, params)
    assert gme <= get + ORDER_TOL
    assert get <= eb + ORDER_TOL

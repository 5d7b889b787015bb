"""Test oracle for Monte Carlo, shared by the physical-layer tests.

``monte_carlo`` is the two-search Monte Carlo: it demodulates each
noiseless and each noisy observation by nearest-point search over the
sorted table and counts the frames whose two indices differ.  The
package decides by the sent point's decision cell with no search and
must return the same ``MonteCarloResult``, bit for bit.
"""

from __future__ import annotations

import numpy as np

from cachealign import MonteCarloResult, PhyConfig
from cachealign.phy import NOISE_SIGMA, _certified, _nearest, _received, _transmit_peak


def monte_carlo(cfg: PhyConfig, trials: int, seed: int) -> MonteCarloResult:
    """Symbol error rates by two nearest-point searches per user and trial."""
    tables = _certified(cfg).values
    rng = np.random.default_rng(seed)
    symbols = rng.integers(0, cfg.q, size=(trials, 4))
    noise = NOISE_SIGMA * _transmit_peak(cfg) / float(cfg.power) ** 0.5
    rates = []
    for user, values in zip((1, 2), tables):
        y = _received(cfg, symbols, user)
        # Certified values are distinct, so a wrong index is a wrong triple.
        errors = _nearest(values, y + noise * rng.standard_normal(trials)) != _nearest(values, y)
        rates.append(float(np.mean(errors)))
    return MonteCarloResult(
        power=float(cfg.power), trials=trials, ser_user1=rates[0], ser_user2=rates[1], seed=seed
    )

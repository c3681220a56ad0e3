"""The exp/log build a byte pin was recorded under.

numpy dispatches np.exp and np.log to a loop for the CPU's SIMD target
(NPY_DISABLE_CPU_FEATURES narrows it), and the AVX512 and AVX2 loops differ
in the last bit of some results. Posterior weights, incomplete beta values
and the reports built from them inherit those bits, so each pin of them keeps
one value per build, keyed by the build's fingerprint: the sha256 of exp and
log over a fixed probe.
"""

import hashlib

import numpy as np
import pytest


def _fingerprint() -> str:
    probe = np.linspace(-50.0, 50.0, 10001)
    logs = np.log(np.geomspace(1e-300, 1e300, 10001))
    return hashlib.sha256(np.exp(probe).tobytes() + logs.tobytes()).hexdigest()[:16]


FINGERPRINT = _fingerprint()

# numpy 2.4 on x86-64 with AVX512 dispatch, and the same with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" (AVX2 dispatch).
AVX512 = "4b87d2b349db7d2a"
AVX2 = "f9d5fd24502417ff"


def pinned(by_build: dict):
    """The value recorded for this process's exp/log build. A build with no
    recorded value fails the test and names its fingerprint."""
    if FINGERPRINT not in by_build:
        pytest.fail(
            f"no pinned value for the exp/log fingerprint {FINGERPRINT} "
            f"(recorded: {', '.join(sorted(by_build))}); record one under it"
        )
    return by_build[FINGERPRINT]

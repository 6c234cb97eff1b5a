"""Shared fixtures and the hypothesis profile; the references they hand
out live in reference.py."""

import pytest

from reference import GROVER_MANIFEST, VQE_MANIFEST

try:
    from hypothesis import settings
except ImportError:  # only tests/test_kernels.py needs it, and skips
    pass
else:
    # fixed example sequences, so property suites give the same verdict
    settings.register_profile("derandomized", derandomize=True,
                              database=None)
    settings.load_profile("derandomized")


@pytest.fixture
def grover_manifest_text():
    return GROVER_MANIFEST


@pytest.fixture
def vqe_manifest_text():
    return VQE_MANIFEST

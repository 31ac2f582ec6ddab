"""Tests for snapshot-timing policies."""

import pytest

from repro.core.policy import (
    AfterReady,
    AfterRuntimeBoot,
    AfterWarmup,
)


class TestPolicies:
    def test_after_ready_is_not_warm(self):
        assert AfterReady().warm is False
        assert AfterReady().key == "after-ready"

    def test_after_runtime_boot(self):
        assert AfterRuntimeBoot().warm is False
        assert AfterRuntimeBoot().key == "after-runtime-boot"

    def test_after_warmup_is_warm(self):
        policy = AfterWarmup(requests=1)
        assert policy.warm is True
        assert policy.key == "after-warmup-1"

    def test_after_warmup_multiple_requests(self):
        assert AfterWarmup(requests=5).key == "after-warmup-5"

    def test_after_warmup_requires_positive(self):
        with pytest.raises(ValueError):
            AfterWarmup(requests=0)

    def test_policies_hashable_and_equal(self):
        assert AfterReady() == AfterReady()
        assert AfterWarmup(1) == AfterWarmup(1)
        assert AfterWarmup(1) != AfterWarmup(2)
        assert len({AfterReady(), AfterReady(), AfterWarmup(1)}) == 2


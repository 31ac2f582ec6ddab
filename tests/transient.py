"""Transient faults for tests: sites that go quiet after a few fires.

The fault model arms a site with a probability and nothing else; a
test that needs a fault to strike once (or twice) and then stop, to
watch the platform recover, installs :class:`TransientInjector`.
"""

from repro.faults import FaultInjector, FaultPlan


class TransientInjector(FaultInjector):
    """A fault injector whose sites stop firing after ``fires`` fires
    each. A crossing past the cap is not recorded as a decision."""

    def __init__(self, kernel, plan: FaultPlan, fires: int) -> None:
        super().__init__(kernel, plan)
        self.fires = fires

    def should_fire(self, site: str, detail: str = "") -> bool:
        if self.fired.get(site, 0) >= self.fires:
            return False
        return super().should_fire(site, detail=detail)


def install_transient(kernel, plan: FaultPlan,
                      fires: int = 1) -> TransientInjector:
    """Install ``plan`` on ``kernel`` with each site capped at ``fires``."""
    injector = TransientInjector(kernel, plan, fires)
    kernel.faults = injector
    return injector

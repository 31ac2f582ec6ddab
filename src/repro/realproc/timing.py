"""Compare real start-up techniques on this host (benchmark A2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bench.stats import bootstrap_median_ci, median
from repro.realproc.runner import VanillaProcessRunner
from repro.realproc.zygote import ZygoteRunner


@dataclass
class StartupComparison:
    """Median start-up per technique for one function (real host)."""

    function: str
    vanilla_ms: List[float]
    zygote_ms: List[float]

    @property
    def vanilla_median(self) -> float:
        return median(self.vanilla_ms)

    @property
    def zygote_median(self) -> float:
        return median(self.zygote_ms)

    @property
    def improvement_pct(self) -> float:
        return 100.0 * (1 - self.zygote_median / self.vanilla_median)

    @property
    def speedup_pct(self) -> float:
        """vanilla/zygote ratio, the paper's Figure 6 convention."""
        return 100.0 * self.vanilla_median / self.zygote_median

    def render(self) -> str:
        vci = bootstrap_median_ci(self.vanilla_ms)
        zci = bootstrap_median_ci(self.zygote_ms)
        return (
            f"{self.function}: vanilla {self.vanilla_median:.1f}ms "
            f"({vci.low:.1f};{vci.high:.1f})  zygote {self.zygote_median:.1f}ms "
            f"({zci.low:.1f};{zci.high:.1f})  improvement {self.improvement_pct:.0f}%"
        )


def compare_startup(function: str, repetitions: int = 15,
                    invoke: bool = True) -> StartupComparison:
    """Measure vanilla vs zygote start-up for ``function`` on this host."""
    vanilla_samples = VanillaProcessRunner().measure(
        function, repetitions=repetitions, invoke=invoke
    )
    with ZygoteRunner(function) as zygote:
        zygote_samples = zygote.measure(repetitions=repetitions, invoke=invoke)
    return StartupComparison(
        function=function,
        vanilla_ms=[s.startup_ms for s in vanilla_samples],
        zygote_ms=[s.startup_ms for s in zygote_samples],
    )

"""OpenFaaS templates, including the paper's CRIU variants (§5.2).

"A template hides setup complexity from users ... There are templates
for languages like Go, Python, Java, PHP, and C#. To spin off a
prebaked function, we need to create a template that adds all CRIU
dependencies and executes CRIU commands. As CRIU uses different
commands to start processes in different runtimes, we created a new
CRIU-version template for each language that we wanted to support."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.policy import AfterReady, AfterWarmup, SnapshotPolicy


class TemplateError(Exception):
    """Unknown template or invalid template definition."""


@dataclass(frozen=True)
class Template:
    """A function project template."""

    name: str
    language: str
    runtime_kind: str                # which ManagedRuntime hosts it
    criu_enabled: bool = False
    # CRIU templates may carry a post-processing (warm-up) script.
    warmup_requests: int = 0

    @property
    def start_technique(self) -> str:
        return "prebake" if self.criu_enabled else "vanilla"

    def snapshot_policy(self) -> SnapshotPolicy:
        if not self.criu_enabled:
            raise TemplateError(f"template {self.name!r} is not a CRIU template")
        if self.warmup_requests > 0:
            return AfterWarmup(requests=self.warmup_requests)
        return AfterReady()


_BUILTIN = [
    Template(name="java8", language="java", runtime_kind="jvm"),
    Template(name="python3", language="python", runtime_kind="python"),
    Template(name="node12", language="javascript", runtime_kind="nodejs"),
    Template(name="java8-criu", language="java", runtime_kind="jvm",
             criu_enabled=True),
    Template(name="java8-criu-warm", language="java", runtime_kind="jvm",
             criu_enabled=True, warmup_requests=1),
    Template(name="python3-criu", language="python", runtime_kind="python",
             criu_enabled=True),
    Template(name="node12-criu", language="javascript", runtime_kind="nodejs",
             criu_enabled=True),
]


class TemplateStore:
    """The template repository ``faas-cli new`` copies from."""

    def __init__(self) -> None:
        self._templates: Dict[str, Template] = {}
        for template in _BUILTIN:
            self.add(template)

    def add(self, template: Template) -> None:
        if template.name in self._templates:
            raise TemplateError(f"duplicate template {template.name!r}")
        self._templates[template.name] = template

    def get(self, name: str) -> Template:
        template = self._templates.get(name)
        if template is None:
            raise TemplateError(
                f"no template {name!r}; available: {sorted(self._templates)}"
            )
        return template

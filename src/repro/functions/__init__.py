"""Function workloads (paper §4.1 and §4.2.2).

Importing this package registers the paper's five workloads in the
function registry: ``noop``, ``markdown``, ``image-resizer``,
``synthetic-small``, ``synthetic-medium`` and ``synthetic-big``.
"""

from repro.functions.base import FunctionApp, make_app, register_app
from repro.functions.noop import NoopFunction
from repro.functions.markdown import MarkdownFunction, SAMPLE_DOCUMENT
from repro.functions.image_resizer import ImageResizerFunction
from repro.functions.synthetic import (
    SyntheticFunction,
    big_function,
    custom_function,
    medium_function,
    small_function,
)
from repro.functions.polyglot import (
    NodeMarkdownFunction,
    PythonMarkdownFunction,
)

__all__ = [
    "FunctionApp",
    "make_app",
    "register_app",
    "NoopFunction",
    "MarkdownFunction",
    "SAMPLE_DOCUMENT",
    "ImageResizerFunction",
    "SyntheticFunction",
    "small_function",
    "medium_function",
    "big_function",
    "custom_function",
    "PythonMarkdownFunction",
    "NodeMarkdownFunction",
]

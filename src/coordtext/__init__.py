"""Textual-coordinate dataset construction and evaluation toolkit for visual LLMs.

Importing the package registers its nine layers in ``sys.modules`` and as
attributes of the package, but runs none of them: each runs on first
attribute access (``importlib.util.LazyLoader``). So a command runs only the
layers it calls: ``coordtext verify`` never runs the builders. Each public
name is imported from the layer that defines it
(``from coordtext.coords import encode_bbox``).

Python 3.11's LazyLoader is not safe when two threads make a layer's first
access at once. So threads touch only layers that have run: the one place
that starts them, ``gateway.query_batch``, runs workers that call only
``gateway``, which has run by then, and the standard library. A transport
passed to it must keep to that: its ``send`` makes no layer's first access.
"""

import importlib.util
import sys


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


annotations = _register("annotations")
builders = _register("builders")
coords = _register("coords")
evals = _register("evals")
gateway = _register("gateway")
meteor = _register("meteor")
prompts = _register("prompts")
records = _register("records")
seeding = _register("seeding")

__version__ = "0.1.0"

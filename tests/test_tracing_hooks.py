"""Every engine name perfbench's tracer hooks exists on syzlab.

perfbench/tracing.py wraps functions and methods of syzlab by name, and
marks a layer absent, rather than failing, where a name no longer resolves.
So an engine rename would show only as an absent layer in a traced
benchmark run.  This loads the tracer by path, as a file and not as a
package, and resolves each (module, attribute) of its HOOKS on syzlab.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_hooked_name_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    absent = []
    for module, attribute, _ in tracing.HOOKS:
        target = importlib.import_module(f"syzlab.{module}")
        for part in attribute.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            absent.append(f"{module}.{attribute}")
    assert tracing.HOOKS
    assert not absent, f"hooked names syzlab lacks: {absent}"

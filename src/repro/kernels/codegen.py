"""Retired C code generator; kept only for ``perfbench/run.py``.

``perfbench.run.environment_facts`` records ``codegen.available()``. Remove
this module once that reader is gone.
"""


def available() -> bool:
    return False

"""README's "Library entry points" may only name functions that exist:
every backticked name there, or the callee of every backticked call,
must resolve as ``kinreduce.<name>`` or ``kinreduce.<module>.<name>``."""

import importlib
import pkgutil
import re
from pathlib import Path

import kinreduce

README = Path(__file__).resolve().parents[1] / "README.md"

# a dotted name at the start of a backticked span, before any call
_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def library_section_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    section = re.split(r"^## ", section, maxsplit=1, flags=re.M)[0]
    return sorted({m.group(1) for m in _NAME.finditer(section)})


def resolves(name, modules):
    """Whether ``name``, dotted or not, is an attribute path from one of
    ``modules``; a leading ``kinreduce.`` is the package itself."""
    parts = name.split(".")
    if parts[0] == "kinreduce":
        parts = parts[1:]
    for obj in modules:
        for part in parts:
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    return False


def test_library_section_names_resolve():
    modules = [kinreduce] + [
        importlib.import_module(f"kinreduce.{info.name}")
        for info in pkgutil.iter_modules(kinreduce.__path__)
    ]
    names = library_section_names()
    assert len(names) >= 20  # the section was found and parsed
    missing = [name for name in names if not resolves(name, modules)]
    assert not missing, f"README names missing from kinreduce: {missing}"

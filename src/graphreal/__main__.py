# core before cli: with no bytecode cache, core.py's compile then peaks
# before cli.py is loaded, not on top of it (about 0.1 MB per call).
from . import core  # noqa: F401
from .cli import main

main()

# cli before core: with no bytecode cache, cli.py's compile is the larger
# one, and core.py's compile then reuses its memory (about 0.1 MB per call).
from .cli import main

main()

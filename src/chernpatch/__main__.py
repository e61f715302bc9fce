"""python -m chernpatch: the command line of :mod:`chernpatch.cli`."""
from .cli import main
raise SystemExit(main())

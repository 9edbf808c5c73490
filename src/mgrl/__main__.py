"""``python -m mgrl``: the ``mgrl`` command, also with no install."""
from .cli import main

raise SystemExit(main())

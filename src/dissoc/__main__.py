"""``python -m dissoc``: the ``dissoc`` command line."""

from .cli import main

raise SystemExit(main())

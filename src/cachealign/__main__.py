"""``python -m cachealign``: the same command as the installed ``cachealign`` script."""

from .cli import main

raise SystemExit(main())

"""``python -m chaosfilter``: the command line without an installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

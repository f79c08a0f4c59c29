"""``python -m bhsim``: the same command line as the ``bhsim`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

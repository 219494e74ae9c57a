"""``python -m mmvport``: the command line of :mod:`mmvport.cli`."""
from .cli import main
if __name__ == "__main__":
    raise SystemExit(main())

"""python -m dvmbeam: the dvmbeam command line."""

import sys

from .cli import main

sys.exit(main())

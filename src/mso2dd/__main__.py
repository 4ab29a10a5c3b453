"""`python -m mso2dd` runs the command line."""

import sys

from .cli import main

sys.exit(main())

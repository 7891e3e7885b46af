"""``python -m geochaos``: the experiment runner's command line."""

import sys

from .cli import main

sys.exit(main())

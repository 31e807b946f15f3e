"""``python -m fibl``: the fibl command line."""

import sys

from fibl import cli

sys.exit(cli.main())

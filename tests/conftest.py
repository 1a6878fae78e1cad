"""Test-suite set-up.

The independent checkers in ``helpers.py`` state their conditions with
``assert``.  Registering the module for pytest's assertion rewriting keeps
those checks running when the suite itself runs under ``python -O``.
"""

import pytest

pytest.register_assert_rewrite("helpers")

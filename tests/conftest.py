"""Every warning raised in a test under tests/ fails that test, an unclosed
file's ResourceWarning included.

The filter is a mark on these tests rather than the `filterwarnings` setting,
which would reach every test pytest runs from this checkout. The one
warning ignored is raised by a hypothesis dependency while it reports a
falsifying example; as an error it would turn a failing property test into an
internal error of the whole pytest run.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent
_WARNINGS_FAIL = pytest.mark.filterwarnings(
    "error", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            item.add_marker(_WARNINGS_FAIL)

"""The package's public surface."""

from __future__ import annotations

import arlabel


def test_every_exported_name_resolves():
    # An export that outlives the deletion of its object fails here, not at
    # a user's `from arlabel import *`.
    missing = [name for name in arlabel.__all__ if not hasattr(arlabel, name)]
    assert missing == []
    assert len(set(arlabel.__all__)) == len(arlabel.__all__)

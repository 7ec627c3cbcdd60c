"""The package's public name list."""

from collections import Counter

import signedfam


def test_every_exported_name_resolves_once():
    assert [name for name, count in Counter(signedfam.__all__).items() if count > 1] == []
    assert [name for name in signedfam.__all__ if not hasattr(signedfam, name)] == []

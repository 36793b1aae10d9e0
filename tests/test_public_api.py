"""The package's public names: everything ``__all__`` lists resolves."""

import tacosim


def test_all_names_resolve_under_star_import():
    namespace: dict = {}
    exec("from tacosim import *", namespace)
    assert [name for name in tacosim.__all__ if name not in namespace] == []

"""The package's exported surface."""

import quadlod


def test_every_exported_name_resolves_once():
    names = quadlod.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(quadlod, name)] == []

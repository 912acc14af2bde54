import types

import anop


def test_all_lists_no_submodules():
    leaked = [name for name in anop.__all__
              if isinstance(getattr(anop, name), types.ModuleType)]
    assert leaked == []


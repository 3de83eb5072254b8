from __future__ import annotations

import storymin


def test_every_public_name_resolves():
    assert len(set(storymin.__all__)) == len(storymin.__all__)
    missing = [name for name in storymin.__all__ if not hasattr(storymin, name)]
    assert not missing
    namespace: dict = {}
    exec("from storymin import *", namespace)
    assert set(storymin.__all__) <= set(namespace)

import remtrack


def test_all_is_sorted_unique_and_resolves():
    names = remtrack.__all__
    assert list(names) == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(remtrack, name)] == []
    namespace: dict = {}
    exec("from remtrack import *", namespace)
    assert set(names) <= set(namespace)

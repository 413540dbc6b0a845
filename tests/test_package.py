import mladder


def test_every_export_resolves():
    missing = [name for name in mladder.__all__ if not hasattr(mladder, name)]
    assert missing == []
    assert len(set(mladder.__all__)) == len(mladder.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from mladder import *", namespace)
    assert set(mladder.__all__) <= set(namespace)

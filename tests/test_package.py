import kreinstring


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from kreinstring import *", namespace)  # a stale __all__ entry raises here
    assert set(kreinstring.__all__) <= set(namespace)

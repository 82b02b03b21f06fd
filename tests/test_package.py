import arrayforge
from arrayforge import array_model, crb_eval, harness, scf_objective, sgd_designer

MODULES = (array_model, scf_objective, sgd_designer, crb_eval, harness)


def test_package_exports_each_module_list_once():
    names = arrayforge.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(["__version__", *(name for module in MODULES for name in module.__all__)])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(arrayforge, name) is getattr(module, name)

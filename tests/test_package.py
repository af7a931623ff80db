"""The package namespace re-exports every module's __all__.

hsdpa_ee/__init__.py star-imports each module but cli_report, the
command line front end, so a name added to a module's __all__ is a
package name without being listed a second time.
"""

import importlib
import pkgutil

import pytest

import hsdpa_ee

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(hsdpa_ee.__path__)
    if info.name not in ("cli_report", "__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_each_name_in_all_is_the_package_name(name):
    module = importlib.import_module(f"hsdpa_ee.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(hsdpa_ee, public) is getattr(module, public), public


def test_cli_report_names_stay_out_of_the_package_namespace():
    cli_report = importlib.import_module("hsdpa_ee.cli_report")
    assert not any(hasattr(hsdpa_ee, public) for public in cli_report.__all__)

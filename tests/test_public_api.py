"""Public-API stability tests.

Guards the documented import surface: everything README and the examples
rely on must be importable from the advertised locations, and ``__all__``
lists must be accurate (no phantom exports).
"""

import importlib

import pytest

import repro


class TestTopLevelSurface:
    def test_version(self):
        assert repro.__version__ == "1.19.0"

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    @pytest.mark.parametrize(
        "name",
        ["Bitstream", "BitstreamBatch", "Encoding", "scc", "Synchronizer",
         "Desynchronizer", "Decorrelator", "ShuffleBuffer", "SyncMax",
         "SyncMin", "DesyncSaturatingAdder", "Multiplier", "ScaledAdder",
         "CorDiv", "CAMax", "DigitalToStochastic", "Regenerator", "LFSR",
         "VanDerCorput", "Halton", "Sobol", "make_rng", "SCGraph", "autofix",
         "flip_bits", "fault_sweep", "ReproError"],
    )
    def test_readme_names_present(self, name):
        assert hasattr(repro, name)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize(
        "module",
        ["repro.bitstream", "repro.rng", "repro.convert", "repro.arith",
         "repro.core", "repro.hardware", "repro.pipeline", "repro.analysis",
         "repro.rtl", "repro.graph", "repro.apps", "repro.faults",
         "repro.cli", "repro.kernels", "repro.obs"],
    )
    def test_subpackage_all_accurate(self, module):
        mod = importlib.import_module(module)
        assert hasattr(mod, "__all__") or module in ("repro.faults", "repro.cli")
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"

    def test_docstrings_everywhere(self):
        # Every public module documents itself (release hygiene).
        for module in ("repro", "repro.bitstream", "repro.rng", "repro.convert",
                       "repro.arith", "repro.core", "repro.hardware",
                       "repro.pipeline", "repro.analysis", "repro.rtl",
                       "repro.graph", "repro.apps", "repro.faults", "repro.cli",
                       "repro.kernels", "repro.obs"):
            mod = importlib.import_module(module)
            assert mod.__doc__ and len(mod.__doc__.strip()) > 20, module

    def test_core_classes_documented(self):
        from repro.core import Decorrelator, Desynchronizer, Synchronizer
        for cls in (Synchronizer, Desynchronizer, Decorrelator):
            assert cls.__doc__ and len(cls.__doc__) > 50
            assert cls.process_pair.__doc__

"""Public-API surface tests: what README promises must import and work."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_readme_quickstart_compiles(self):
        from repro import (
            CountBasedWindow,
            LinearFunction,
            StreamMonitor,
            TopKQuery,
        )

        monitor = StreamMonitor(
            dims=2, window=CountBasedWindow(100), algorithm="sma"
        )
        qid = monitor.add_query(
            TopKQuery(LinearFunction([1.0, 2.0]), k=10)
        )
        report = monitor.process(
            monitor.make_records([[0.5, 0.5], [0.9, 0.9]])
        )
        assert qid in report.changes
        for entry in report.changes[qid].top:
            assert entry.score > 0


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.grid",
            "repro.algorithms",
            "repro.skyband",
            "repro.structures",
            "repro.streams",
            "repro.extensions",
            "repro.analysis",
            "repro.skyband.prediction",
            "repro.grid.naive",
            "repro.structures.skiplist",
        ],
    )
    def test_imports_cleanly(self, module):
        importlib.import_module(module)

    def test_subpackage_all_resolve(self):
        for name in ("core", "grid", "algorithms", "skyband", "streams"):
            module = importlib.import_module(f"repro.{name}")
            for export in getattr(module, "__all__", []):
                assert hasattr(module, export), f"{name}.{export}"


class TestDocstringCoverage:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.core.engine",
            "repro.core.scoring",
            "repro.core.window",
            "repro.grid.grid",
            "repro.grid.traversal",
            "repro.algorithms.tma",
            "repro.algorithms.sma",
            "repro.algorithms.tsl",
            "repro.skyband.skyband",
            "repro.analysis.cost_model",
        ],
    )
    def test_module_docstrings(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 80, module

    def test_public_classes_documented(self):
        import inspect

        from repro.algorithms.sma import SkybandMonitoringAlgorithm
        from repro.algorithms.tma import TopKMonitoringAlgorithm
        from repro.algorithms.tsl import ThresholdSortedListAlgorithm
        from repro.core.engine import StreamMonitor
        from repro.grid.grid import Grid
        from repro.skyband.skyband import ScoreTimeSkyband

        for cls in (
            StreamMonitor,
            Grid,
            ScoreTimeSkyband,
            TopKMonitoringAlgorithm,
            SkybandMonitoringAlgorithm,
            ThresholdSortedListAlgorithm,
        ):
            assert cls.__doc__, cls.__name__
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                # getdoc falls back through the MRO: overrides of a
                # documented base method count as documented.
                doc = inspect.getdoc(getattr(cls, name))
                assert doc, f"{cls.__name__}.{name}"

"""The package's public names, and the modules a command-line call loads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphreal

SRC = Path(__file__).resolve().parent.parent / "src"

# Every name ``graphreal`` exports, with the submodule that defines it.
PUBLIC = {
    **dict.fromkeys(
        ["AdjacencySet", "DegreeSequence", "DegreeTooLarge", "ForbiddenSet",
         "GraphRealError", "Incomparable", "InvalidArgument", "InvalidDegree",
         "InvalidSet", "LabeledGraph", "NotGraphical", "OracleTooLarge", "ParseError",
         "RestartBudgetExceeded", "TooManyForbidden", "format_graph", "format_sequence",
         "graph_degree_sequence", "parse_graphs", "parse_sequence", "parse_sequences",
         "validate_input_sequence"], "core"),
    **dict.fromkeys(
        ["EgReport", "NodeSelectionPolicy", "erdos_gallai_test",
         "havel_hakimi_construct", "havel_hakimi_reduce"], "graphicality"),
    **dict.fromkeys(
        ["ReducedSequence", "cg_test", "colex_less", "leftmost_restricted",
         "reduce_by_set", "set_leq"], "constrained"),
    **dict.fromkeys(
        ["CountResult", "all_adjacency_sets", "count_realizations", "enumerate_all",
         "enumerate_all_parallel", "rightmost_adjacency_set"], "enumeration"),
    **dict.fromkeys(
        ["CountEstimate", "MrRunStats", "RealizationSample", "SplitMix64",
         "enumerate_with_probabilities", "estimate_count", "molloy_reed_sample",
         "sample_weighted"], "sampling"),
    **dict.fromkeys(["OracleQuery", "oracle_enumerate", "oracle_exists"], "oracle"),
}


class TestPublicNames:
    def test_fifty_names(self):
        assert len(PUBLIC) == 50
        assert sorted(graphreal.__all__) == sorted(PUBLIC)

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_is_its_submodules_object(self, name):
        submodule = importlib.import_module(f"graphreal.{PUBLIC[name]}")
        assert getattr(graphreal, name) is getattr(submodule, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from graphreal import *", namespace)
        for name, submodule in PUBLIC.items():
            module = importlib.import_module(f"graphreal.{submodule}")
            assert namespace[name] is getattr(module, name), name

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(graphreal))
        assert "__version__" in dir(graphreal)

    def test_unknown_name(self):
        with pytest.raises(AttributeError):
            graphreal.no_such_name
        with pytest.raises(ImportError):
            exec("from graphreal import no_such_name", {})

    def test_version(self):
        assert graphreal.__version__ == "0.1.0"


def modules_added(statement):
    """The modules that running ``statement`` in a fresh interpreter loads."""
    script = (
        "import io, json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def cli_modules(argv):
    return modules_added(
        f"from graphreal import cli; cli.run({argv!r}, out=io.StringIO())"
    )


UNUSED_BY_TEST = {
    "dataclasses", "inspect", "fractions", "decimal", "graphreal.constrained",
    "graphreal.enumeration", "graphreal.sampling", "graphreal.oracle",
}


class TestStartUp:
    def test_import_loads_no_submodule(self):
        assert {m for m in modules_added("import graphreal")
                if m.startswith("graphreal.")} == set()

    def test_test_loads_only_what_it_runs(self):
        added = cli_modules(["test", "-s", "1 1"])
        assert not added & {*UNUSED_BY_TEST, "graphreal.construction"}

    def test_construct_loads_only_what_it_runs(self):
        # The Havel-Hakimi rows and their writer need only core, graphicality
        # and the construction module, which no other subcommand loads.
        added = cli_modules(["construct", "-s", "3 0 2 2 1 2"])
        assert "graphreal.construction" in added
        assert not added & UNUSED_BY_TEST

    def test_forbid_adds_only_the_constrained_module(self):
        added = cli_modules(["test", "-s", "1 1", "--forbid", "1:"])
        assert added & UNUSED_BY_TEST == {"graphreal.constrained"}

    def test_count_loads_neither_sampler_nor_oracle(self):
        added = cli_modules(["count", "-s", "2 2 2"])
        assert "graphreal.enumeration" in added
        assert not added & {"graphreal.sampling", "graphreal.oracle"}

    @pytest.mark.parametrize("argv", [["enumerate", "-s", "2 2 2 1 1"],
                                      ["count", "-s", "2 2 2 1 1"]])
    def test_enumerate_and_count_skip_the_constrained_module(self, argv):
        # Only rightmost_adjacency_set runs cg_test, and it imports it itself.
        added = cli_modules(argv)
        assert "graphreal.enumeration" in added
        assert "graphreal.constrained" not in added

    @pytest.mark.parametrize("argv", [
        ["estimate", "-s", "2 2 2 1 1", "--samples", "3", "--seed", "1"],
        ["sample", "-s", "2 2 2 1 1", "--samples", "2", "--seed", "1"],
    ])
    def test_estimate_and_weighted_sample_skip_the_constrained_module(self, argv):
        # Only Molloy-Reed early rejection runs the CG kernel, and it imports it itself.
        added = cli_modules(argv)
        assert "graphreal.sampling" in added
        assert "graphreal.constrained" not in added

    def test_mr_sample_loads_neither_fractions_nor_enumeration(self):
        # Stub matching needs no exact probabilities and no tree walk.
        added = cli_modules(["sample", "-s", "2 2 2 2", "--method", "mr", "--seed", "1"])
        assert "graphreal.sampling" in added
        assert not added & {"fractions", "decimal", "graphreal.enumeration"}

    @pytest.mark.parametrize("argv", [
        ["sample", "-s", "2 2 2 1 1", "--samples", "2", "--seed", "1"],
        ["estimate", "-s", "2 2 2 1 1", "--samples", "3", "--seed", "1"],
    ])
    def test_weighted_sample_and_estimate_load_neither_fractions_nor_decimal(self, argv):
        # Their weights are ints; only the library functions build a Fraction.
        added = cli_modules(argv)
        assert "graphreal.enumeration" in added
        assert not added & {"fractions", "decimal"}

    @pytest.mark.parametrize("early_reject", [False, True])
    def test_mr_sample_loads_the_constrained_module_only_to_reject_early(self,
                                                                         early_reject):
        argv = ["sample", "-s", "2 2 2 2", "--method", "mr", "--seed", "1"]
        added = cli_modules(argv + ["--early-reject"] * early_reject)
        assert ("graphreal.constrained" in added) is early_reject

    @pytest.mark.parametrize("argv", [
        ["test", "-s", "1 1"], ["test", "-s", "2 2", "--forbid", "1:", "--oracle"],
        ["construct", "-s", "2 2 2", "--policy", "min"],
        ["enumerate", "-s", "2 2 2 1 1", "--limit", "2", "--format", "jsonlines"],
        ["count", "-s", "2 2 2"],
        ["sample", "-s", "2 2 2 2", "--method", "mr", "--seed", "1", "--early-reject"],
        ["estimate", "-s", "2 2 2 1 1", "--samples", "3", "--with-exact"],
    ])
    def test_no_call_loads_argparse(self, argv):
        # The option table is read without argparse, and so without the
        # gettext and locale modules that argparse loads.
        assert not cli_modules(argv) & {"argparse", "gettext", "locale"}

    def test_no_call_loads_a_stubs_module(self):
        for argv in [["sample", "-s", "2 2 2 2", "--method", "mr", "--early-reject"],
                     ["sample", "-s", "2 2 2 1 1", "--samples", "2"],
                     ["estimate", "-s", "2 2 2 1 1", "--samples", "3"],
                     ["enumerate", "-s", "2 2 2 1 1"], ["count", "-s", "2 2 2"],
                     ["construct", "-s", "2 2 2"], ["test", "-s", "2 2", "--forbid", "1:"]]:
            assert "graphreal.stubs" not in cli_modules(argv), argv
        assert "graphreal.stubs" not in modules_added(
            "import graphreal; from graphreal import *")

    def test_no_submodule_defines_a_module_getattr(self):
        # Only the package resolves names lazily; each submodule binds its
        # names when it runs.
        package = Path(graphreal.__file__).parent
        submodules = sorted(set(package.glob("*.py")) - {package / "__init__.py"})
        assert package / "sampling.py" in submodules
        for path in submodules:
            tree = ast.parse(path.read_text())
            names = {node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
            assert "__getattr__" not in names, path.name

    def test_no_dataclasses_anywhere(self):
        assert "dataclasses" not in modules_added(
            "import graphreal; from graphreal import *"
        )
